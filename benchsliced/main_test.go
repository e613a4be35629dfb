package main

import (
	"net/http"
	"testing"
	"time"
)

// A non-200 reply or a transport error is never stored for the
// checker, so it must fail the run on its own: it counts as failed,
// in error_rate, and makes the run incorrect.
func TestFailedRequestsMakeTheRunIncorrect(t *testing.T) {
	run := func(statuses ...int) *liveRun {
		w := &window{samples: [][]sample{nil, nil}}
		for i, st := range statuses {
			w.samples[i%2] = append(w.samples[i%2], sample{status: st, lat: time.Millisecond})
		}
		lr := &liveRun{win: w, check: &checkReport{}}
		lr.tally()
		return lr
	}
	if lr := run(http.StatusOK, http.StatusOK, http.StatusOK); !lr.correct() || lr.errorRate() != 0 {
		t.Fatalf("all-200 run: correct=%v error_rate=%v", lr.correct(), lr.errorRate())
	}
	for _, bad := range []int{http.StatusInternalServerError, http.StatusServiceUnavailable, 0} {
		lr := run(http.StatusOK, bad, http.StatusOK, http.StatusOK)
		if lr.correct() {
			t.Errorf("status %d: run reported correct", bad)
		}
		if lr.failed != 1 || lr.errorRate() != 0.25 {
			t.Errorf("status %d: failed=%d error_rate=%v, want 1 and 0.25", bad, lr.failed, lr.errorRate())
		}
	}
	lr := run(http.StatusOK, http.StatusOK)
	lr.check.rejected = 1
	if lr.correct() {
		t.Error("a run with a rejected response reported correct")
	}
}
