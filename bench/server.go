package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything building and running the benchmark leaves
// behind: binaries, the Go build cache, generated graphs, data directories.
const buildDir = ".bench_build"

// goBuild compiles the package pkg of the module in dir into out.
func goBuild(dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", pkg, err)
	}
	return nil
}

// memLimit is the server's GOMEMLIMIT. Under concurrent reads and writes
// hlserver's heap grows with run time: every epoch a reader queries keeps
// its whole copy-on-write fork reachable through that epoch's query-scratch
// sync.Pool for two more GC cycles, so retained epochs pile up faster than
// collections free them. The limit makes the GC run often enough to keep
// the run inside a small machine; rss_peak_mb then shows how close the
// server comes to it.
const memLimit = "512MiB"

// server is one running hlserver process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, valid after done
}

// startServer execs hlserver with args on a free loopback port, its log
// in logPath. The process dies with the benchmark (Pdeathsig).
func startServer(bin, logPath string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMEMLIMIT="+memLimit)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hlserver: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, log: logPath, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /healthz until it answers 200, returning the time since
// the process was started.
func (s *server) waitReady(start time.Time, timeout time.Duration) (time.Duration, error) {
	c := &http.Client{Timeout: time.Second}
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return 0, fmt.Errorf("hlserver exited during start-up (%v):\n%s", s.err, s.logTail())
		default:
		}
		resp, err := c.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("hlserver not ready after %v:\n%s", timeout, s.logTail())
}

// kill stops the process with SIGKILL — the crash the durable workloads
// recover from — and waits for it to exit.
func (s *server) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // fails only if it already exited; done tells
	<-s.done
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics scrapes /metrics.
func (s *server) metrics(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// logTail returns the end of the server log, for error messages.
func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log) // best effort: this only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}
