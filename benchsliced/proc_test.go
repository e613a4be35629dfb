package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and parentheses; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	stat := "4242 (odd (name) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 7 0 100 123456 789 18446744073709551615\n"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u s"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tsliced\nVmPeak:\t  900000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(12345 << 10); got != want {
		t.Errorf("VmHWM = %d, want %d", got, want)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing field not reported")
	}
	if _, err := parseStatusKB("VmHWM: 12 MB\n", "VmHWM"); err == nil {
		t.Error("unexpected unit accepted")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for x := 0; time.Now().Before(deadline); x++ {
		_ = x * x
	}
	cpu, err := readCPUTime(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Errorf("CPU time of a busy process = %v", cpu)
	}
	rss, err := readPeakRSS(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if rss < 1<<20 {
		t.Errorf("peak RSS of a Go test binary = %d bytes", rss)
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics("# HELP x y\njumpslice_cache_hits_total 12\njumpslice_http_shed_total{endpoint=\"/slice\"} 0\nbroken\njumpslice_p99 1.5e+06\n")
	if m["jumpslice_cache_hits_total"] != 12 || m[`jumpslice_http_shed_total{endpoint="/slice"}`] != 0 || m["jumpslice_p99"] != 1.5e6 {
		t.Errorf("parseMetrics = %v", m)
	}
	if _, ok := m["broken"]; ok {
		t.Error("unparseable sample kept")
	}
	if d := delta(metrics{"a": 1}, metrics{"a": 4, "b": 2}, "b"); d != 2 {
		t.Errorf("delta of a new series = %v", d)
	}
}

func TestContentHashIgnoresVolatileFields(t *testing.T) {
	a := []byte("{\n  \"request\": 1,\n  \"lines\": [\n    2\n  ],\n  \"duration_ns\": 300\n}\n")
	b := []byte("{\n  \"request\": 99,\n  \"lines\": [\n    2\n  ],\n  \"duration_ns\": 12345\n}\n")
	c := []byte("{\n  \"request\": 1,\n  \"lines\": [\n    3\n  ],\n  \"duration_ns\": 300\n}\n")
	ha, da := contentHash(a)
	hb, db := contentHash(b)
	hc, _ := contentHash(c)
	if ha != hb {
		t.Error("repeats differing only in request and duration_ns hash differently")
	}
	if ha == hc {
		t.Error("different content hashes equal")
	}
	if da != 300 || db != 12345 {
		t.Errorf("duration_ns = %d, %d", da, db)
	}
}
