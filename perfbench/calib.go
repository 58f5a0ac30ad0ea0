package main

import (
	"fmt"
	"runtime"
	"time"
)

// The end-to-end timings are reported at a reference machine speed. The
// benchmark runs on a few CPUs of a shared host whose speed moves by a
// third from one minute to the next, for everything in the process
// alike: in one set of ten runs, trial time and the microsecond-scale
// repeated-request time went up and down together by a factor of 1.5.
// So each run also times a fixed kernel of the benchmark's own, between
// its trials or cycles and outside their timings, and its end-to-end
// times are multiplied (rates divided) by speed = calibRef ÷ the
// kernel's median time. The kernel is not the program's code, so a
// change to the program cannot move it. The measured values are printed
// too.

// calibIters is the kernel's work; calibRef is about its time inside a
// run on a 2-vCPU Xeon container, so normalized values stay close to
// measured ones. Changing either changes every normalized figure.
const (
	calibIters = 1 << 20
	calibRef   = 16 * time.Millisecond
)

// calibrator times the kernel and keeps the samples.
type calibrator struct {
	buf     []uint32
	m       map[uint32]uint32
	samples []float64
	spent   time.Duration // time spent calibrating, collection included
	sink    uint64
}

// newCalibrator allocates the kernel's memory and takes a first sample,
// so every run has at least one.
func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]uint32, 1<<12), m: make(map[uint32]uint32)}
	c.kernel() // warms the memory; not timed
	c.sample(1)
	return c
}

// calibNode is what the kernel allocates.
type calibNode struct {
	a, b uint64
	c    []byte
}

// kernel is fixed work of the kind the program does, in a working set
// that stays in the CPU's caches as the program's hot paths do: integer
// arithmetic, random reads and writes in 16 KiB, updates of a
// 256-entry map and small allocations.
func (c *calibrator) kernel() {
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(c.buf) - 1)
	var acc uint64
	keep := &calibNode{}
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		c.buf[j] += uint32(x >> 40)
		acc += uint64(c.buf[(j*7)&mask])
		if i&3 == 0 {
			k := uint32(x>>20) & 255
			c.m[k]++
			acc += uint64(c.m[(k*3)&255])
		}
		if i&7 == 0 {
			n := &calibNode{a: x, b: acc, c: make([]byte, 16)}
			n.c[0] = byte(x)
			if x&1 == 0 {
				keep = n
			}
		}
	}
	c.sink += acc + keep.a
}

// sample times the kernel reps times on a freshly collected heap. A nil
// calibrator does nothing.
func (c *calibrator) sample(reps int) {
	if c == nil {
		return
	}
	t0 := time.Now()
	runtime.GC()
	for i := 0; i < reps; i++ {
		t := time.Now()
		c.kernel()
		c.samples = append(c.samples, time.Since(t).Seconds())
	}
	c.spent += time.Since(t0)
}

// timeSpent returns the time spent calibrating so far; 0 for nil.
func (c *calibrator) timeSpent() time.Duration {
	if c == nil {
		return 0
	}
	return c.spent
}

// speed is the run's machine speed relative to the reference.
func (c *calibrator) speed() float64 { return calibRef.Seconds() / median(c.samples) }

// normalize scales the report's end-to-end timings to the reference
// speed: times are multiplied by the speed, rates divided by it; other
// metrics are left alone. The measured values stay in the notes.
func (r *report) normalize(c *calibrator) {
	speed := c.speed()
	r.notes = append(r.notes, fmt.Sprintf("machine speed %.4f (calibration median %.3f ms over %d samples, reference %.0f ms)",
		speed, median(c.samples)*1e3, len(c.samples), calibRef.Seconds()*1e3))
	for i, m := range r.metrics {
		switch m.Unit {
		case "s", "ms":
			r.metrics[i].Value = m.Value * speed
		case "1/s":
			r.metrics[i].Value = m.Value / speed
		default:
			continue
		}
		r.notes = append(r.notes, fmt.Sprintf("measured %s %.6g %s", m.Name, m.Value, m.Unit))
	}
}
