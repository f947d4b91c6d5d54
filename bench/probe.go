package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/bench/stat"
)

// The machine a benchmark shares changes speed by tens of percent over
// minutes, mostly through contention for caches and memory bandwidth. A
// probe measures that speed while the benchmark runs: every probePeriod it
// does a fixed amount of random-access work over an 8 MiB buffer on its own
// OS thread and reads how much CPU time the work took, so time spent
// waiting for a core does not count, only how fast the core ran. The
// end-to-end timings are then scaled to a reference machine, one on which
// the work unit takes probeRefUS of CPU time.
const (
	probePeriod = 200 * time.Millisecond
	probeRefUS  = 2000.0
	probeWords  = 1 << 21 // 8 MiB of uint32
	probeSteps  = 300_000
)

// probe samples the CPU time of the work unit until stopped.
type probe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // µs per work unit; read only after done
	err     error
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]uint32, probeWords)
		x := uint32(1)
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			start, err := threadCPU()
			for i := 0; i < probeSteps; i++ {
				x = x*1664525 + 1013904223 // an LCG picks the next word
				buf[x>>11] += x
			}
			end, err2 := threadCPU()
			if p.err = errors.Join(err, err2); p.err != nil {
				return
			}
			p.samples = append(p.samples, float64(end-start)/1e3)
		}
	}()
	return p
}

// end stops the probe and returns the median CPU time of its work unit in
// µs, or probeRefUS when the phase was too short for a sample.
func (p *probe) end() (float64, error) {
	close(p.stop)
	<-p.done
	if p.err != nil {
		return 0, p.err
	}
	if len(p.samples) == 0 {
		return probeRefUS, nil
	}
	return stat.Median(p.samples), nil
}

// threadCPU reads the calling thread's CPU clock in nanoseconds.
func threadCPU() (int64, error) {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return ts.Nano(), nil
}
