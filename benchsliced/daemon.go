package main

// The daemon under test: process lifecycle, the /metrics scrape, and
// the /proc readers behind daemon_cpu_us_per_req and
// daemon_peak_rss_mb.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running sliced process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

var listeningLine = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// startDaemon execs bin in its default configuration — only -addr is
// set, to a kernel-chosen loopback port — and returns once the daemon
// has logged its listening address. The access log keeps streaming
// on stderr; it is drained and discarded.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// A benchmark killed mid-run must not leave its daemon running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listeningLine.FindStringSubmatch(sc.Text()); m != nil {
				found <- m[1]
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // the access log is not measured
		close(d.done)
	}()
	select {
	case d.base = <-found:
		return d, nil
	case <-d.done:
		err = errors.New("daemon exited before listening")
	case <-time.After(30 * time.Second):
		err = errors.New("daemon did not report its address within 30s")
	}
	d.stop()
	return nil, err
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain and exit, kills it if it has not
// within 10s, and waits for the process and its log drain to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // a daemon stopped by signal exits non-zero
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
	<-d.done
}

// metrics is one /metrics scrape: series name (labels included, as
// exposed) → value.
type metrics map[string]float64

func scrapeMetrics(c *http.Client, base string) (metrics, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body)), nil
}

// parseMetrics reads Prometheus text exposition, skipping comments
// and samples it cannot parse.
func parseMetrics(text string) metrics {
	m := metrics{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// delta returns after[name] - before[name] (absent series count as 0).
func delta(before, after metrics, name string) float64 { return after[name] - before[name] }

// userHZ is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; Linux fixes it at 100 on every architecture Go supports.
const userHZ = 100

// readCPUTime returns a process's user+system CPU time, all threads.
func readCPUTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain
// spaces and parentheses, so fields are counted from its closing
// parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// readPeakRSS returns a process's resident-set high-water mark in bytes.
func readPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}

// parseStatusKB reads one "Name:   N kB" field of /proc/<pid>/status
// and returns it in bytes.
func parseStatusKB(status, name string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", name, line)
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: %w", err)
		}
		return n << 10, nil
	}
	return 0, fmt.Errorf("status: no %s line", name)
}
