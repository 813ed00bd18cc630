package main

import (
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts
// by tens of percent over minutes. Host times are therefore reported in
// reference seconds: each stretch of measured work is timed, and its wall
// time is scaled by calibRefSeconds over the wall time of a calibration
// run just before it. README.md gives the measured effect on run-to-run
// spread. Wall times are printed beside them and kept in the -json record.

// calibRefSeconds is the time a calibration takes on the reference machine
// (a 2-vCPU 2.1 GHz Xeon, go1.24), so a reference second is about one wall
// second there.
const calibRefSeconds = 0.019

// calibEvery is how long a stretch runs before the next gap between two
// kernels starts a new one.
const calibEvery = 250 * time.Millisecond

// calibrator runs a fixed amount of interpreter-like work: data-dependent
// dispatch, loads and stores over a 512 KiB array, and map updates, as the
// profile and simulate layers do. It calls nothing in the repository, so no
// change under test moves it, and after its first call it allocates
// nothing, so it adds no garbage to the work it calibrates.
type calibrator struct {
	mem    []uint64
	counts map[[2]int]int
}

func newCalibrator() *calibrator {
	return &calibrator{mem: make([]uint64, 1<<16), counts: make(map[[2]int]int, 1<<14)}
}

// run does the calibration work once and returns its wall time in seconds.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	clear(c.mem)
	clear(c.counts)
	acc := uint64(88172645463325252)
	for i := 0; i < 1_200_000; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
		addr := int(acc>>20) & (len(c.mem) - 1)
		switch acc % 8 {
		case 0, 1:
			c.mem[addr] += acc
		case 2, 3:
			acc += c.mem[addr]
		case 4, 5:
			c.counts[[2]int{addr & 4095, i & 3}]++
		default:
			if c.mem[addr]&1 == 0 {
				c.mem[(addr+1)&(len(c.mem)-1)] = acc
			}
		}
	}
	return time.Since(t0).Seconds()
}

// clock accumulates the wall and reference time of work it is started
// around. A nil clock measures nothing, so code shared with untimed paths
// can call lap unconditionally.
type clock struct {
	cal          *calibrator
	wall, refSum float64
	calib        float64   // wall time of the calibration the current stretch is scaled by
	since        time.Time // start of the current stretch
}

// start calibrates and begins timing a new stretch.
func (c *clock) start() {
	c.calib = c.cal.run()
	c.since = time.Now()
}

// stop ends the current stretch.
func (c *clock) stop() {
	d := time.Since(c.since)
	c.wall += d.Seconds()
	c.refSum += c.ref(d)
}

// lap recalibrates between two units of work once the current stretch has
// run for calibEvery.
func (c *clock) lap() {
	if c != nil && time.Since(c.since) >= calibEvery {
		c.stop()
		c.start()
	}
}

// ref converts a wall duration within the current stretch to reference
// seconds.
func (c *clock) ref(d time.Duration) float64 {
	return d.Seconds() * calibRefSeconds / c.calib
}

// measure times fn and returns its wall and reference seconds.
func (c *clock) measure(fn func()) (wall, ref float64) {
	c.start()
	fn()
	c.stop()
	return c.wall, c.refSum
}
