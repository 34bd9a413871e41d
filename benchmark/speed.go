package main

import (
	"sort"
	"time"
)

// The benchmark reports every time at a reference machine speed. The
// machines it runs on are shared, and their speed drifts by tens of
// percent over minutes as other tenants come and go, which is more than
// the differences between two versions of the program worth catching. So
// the timed loops run a fixed calibration workload every calibrationEvery,
// and each time is scaled by referenceCalibration over the loop's median
// calibration time. The calibration is the benchmark's own code and does
// not touch the program, so a change to the program moves the scaled times
// exactly as much as the raw ones; the raw times and the calibration are
// printed beside them.

const (
	// calibrationEvery is how often a timed loop calibrates.
	calibrationEvery = 250 * time.Millisecond
	// referenceCalibration is the calibration time of the reference
	// machine: times are reported as if calibrate took this long.
	referenceCalibration = 20 * time.Millisecond
)

var calibrationSink uint64

// calibrate times a fixed workload shaped like the analyzer's hot paths,
// which churn through small maps and short-lived allocations, so that it
// slows down under the same contention the analyzer does.
func calibrate() time.Duration {
	t0 := time.Now()
	for r := 0; r < 200; r++ {
		m := map[int]uint64{}
		for i := 0; i < 1500; i++ {
			m[(i*7919+r)%2048] += uint64(i)
		}
		s := make([]uint64, 0, 8)
		for k, v := range m {
			s = append(s, uint64(k)^v)
		}
		calibrationSink += s[len(s)/2]
	}
	return time.Since(t0)
}

// speed is the factor that scales the loop's raw times to the reference
// machine: referenceCalibration over the median calibration time.
func (res *loopResult) speed() float64 {
	c := append([]time.Duration(nil), res.calibration...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return float64(referenceCalibration) / float64(c[len(c)/2])
}
