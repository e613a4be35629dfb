// Command benchsliced is the repository's end-to-end benchmark. It
// starts the real sliced daemon on loopback in its default
// configuration, drives it with a closed loop of two clients on one of
// three workloads, checks every distinct response after the timed
// window, and prints the end-to-end metrics. With --trace 1 it prints
// the per-layer metrics instead: counts from the daemon's /metrics
// deltas over the untraced window, and self times from an in-process
// traced replay of every workload's request sequence.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash benchsliced/run.sh --workload hot-hit --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. Everything
// before it is the human-readable report. See README.md for the
// workloads and the recorded choices behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "hot-hit, cold-miss, edit-session, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced replay; 0 the end-to-end metrics")
	bin := flag.String("sliced", filepath.Join(".bench_build", "sliced"), "sliced binary")
	out := flag.String("out", ".bench_build", "directory the replay's span files are written to")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchsliced:", err)
		os.Exit(1)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(workload string, seed int64, seconds int, trace bool, bin, out string) error {
	wls := []string{workload}
	if workload == "all" {
		wls = workloadNames
	} else if !isWorkload(workload) {
		return fmt.Errorf("--workload %q: want one of %s or all", workload, strings.Join(workloadNames, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	fmt.Printf("benchsliced: seed %d (held-out confirmation seed: %d), %ds window, %d closed-loop clients, trace=%v\n",
		seed, heldOutSeed, seconds, clients, trace)
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range wls {
		lr, err := runLive(wl, seed, seconds, bin, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		lr.print()
		if drift := lr.selfChecks(); len(drift) > 0 {
			return fmt.Errorf("%s drifted from its definition: %s", wl, strings.Join(drift, "; "))
		}
		final.Correct = final.Correct && lr.correct()
		final.Attempted += lr.attempted
		final.Failed += lr.failed
		metrics := lr.endToEnd()
		if trace {
			metrics = lr.layerCounts()
		}
		for name, v := range metrics {
			if len(wls) > 1 {
				name = wl + "." + name
			}
			final.Metrics[name] = v
		}
	}
	if trace {
		layers, err := runReplays(seed, out)
		if err != nil {
			return err
		}
		for name, v := range layers {
			final.Metrics[name] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func isWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// inputs are one workload's generated inputs.
type inputs struct {
	hot  *hotCorpus
	cold *coldCorpus
	sess []*session
}

func prepare(wl string, seed int64) *inputs {
	in := &inputs{}
	switch wl {
	case wlHot:
		in.hot = newHotCorpus(seed)
	case wlCold:
		in.cold = newColdCorpus(seed)
	case wlEdit:
		for d := 0; d < editDocs; d++ {
			in.sess = append(in.sess, newSession(seed, d))
		}
	}
	return in
}

// streams returns fresh per-client request streams; every call starts
// the same sequences over. With ramp set they are the ramp's streams,
// disjoint from the timed ones.
func (in *inputs) streams(seed int64, ramp bool) []stream {
	out := make([]stream, clients)
	for c := range out {
		switch {
		case in.hot != nil && ramp:
			out[c] = in.hot.stream(seed, "hot-ramp", c)
		case in.hot != nil:
			out[c] = in.hot.stream(seed, "hot-client", c)
		case in.cold != nil && ramp:
			out[c] = in.cold.stream(c, coldRampOffset)
		case in.cold != nil:
			out[c] = in.cold.stream(c, 0)
		case ramp:
			out[c] = editStreamFor(seed, "edit-ramp", in.sess, c)
		default:
			out[c] = editStreamFor(seed, "edit-client", in.sess, c)
		}
	}
	return out
}

// warm runs a workload's set-up against a fresh daemon: fill the cache
// (hot-hit: every corpus program; cold-miss: distinct programs up to
// the budget) or open every session (edit-session).
func (in *inputs) warm(c *http.Client, t *target) error {
	switch {
	case in.hot != nil:
		return sendAll(c, t, in.hot.warmup())
	case in.cold != nil:
		return sendAll(c, t, in.cold.warmup())
	}
	t.sessions = nil
	for _, s := range in.sess {
		id, err := openSession(c, t.base, s.base.src)
		if err != nil {
			return err
		}
		t.sessions = append(t.sessions, id)
	}
	return nil
}

func openSession(c *http.Client, base, src string) (string, error) {
	resp, err := c.Post(base+"/session", "text/plain", strings.NewReader(src))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("opening session: %w", err)
	}
	if resp.StatusCode != http.StatusCreated || body.Session == "" {
		return "", fmt.Errorf("opening session: %s", resp.Status)
	}
	return body.Session, nil
}

// setups is how many times an untraced run sets the daemon up; setup_s
// is their median. The last set-up serves the timed window.
const setups = 5

// liveRun is one workload's untraced run against the daemon.
type liveRun struct {
	wl        string
	setupS    []float64
	win       *window
	before    metrics
	after     metrics
	cpuAt     []time.Duration // daemon CPU time at each slice boundary
	sliceAt   []time.Duration // when each boundary was read, from the window's start
	peakRSS   int64
	check     *checkReport
	attempted int
	failed    int
	lat       []float64 // ms, ascending
	// wall time of the run's other phases, for the report
	prepareS, checkS float64
}

func runLive(wl string, seed int64, seconds int, bin string, trace bool) (*liveRun, error) {
	t0 := time.Now()
	in := prepare(wl, seed)
	lr := &liveRun{wl: wl, prepareS: time.Since(t0).Seconds()}
	n := setups
	if trace {
		n = 1 // the traced run reports no set-up time
	}
	var (
		d *daemon
		t *target
		c *http.Client
	)
	for i := 0; i < n; i++ {
		if d != nil {
			c.CloseIdleConnections()
			d.stop()
		}
		c = newHTTPClient()
		start := time.Now()
		var err error
		d, err = startDaemon(bin)
		if err != nil {
			return nil, err
		}
		t = &target{base: d.base}
		if err := in.warm(c, t); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		lr.setupS = append(lr.setupS, time.Since(start).Seconds())
	}
	err := lr.measure(c, d, t, in, seed, time.Duration(seconds)*time.Second)
	c.CloseIdleConnections()
	d.stop()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	lr.check = checkWindow(lr.win, in.sess)
	lr.checkS = time.Since(t0).Seconds()
	lr.tally()
	return lr, nil
}

// Timing of the live run: an untimed ramp, then the window, read in
// one-second slices.
const (
	rampDur  = 2 * time.Second
	sliceDur = time.Second
)

// measure ramps the daemon up, then runs the timed window between two
// /metrics reads, sampling the daemon's CPU time at every slice
// boundary.
func (lr *liveRun) measure(c *http.Client, d *daemon, t *target, in *inputs, seed int64, dur time.Duration) error {
	if err := ramp(c, t, in.streams(seed, true), rampDur); err != nil {
		return err
	}
	var err error
	if lr.before, err = scrapeMetrics(c, d.base); err != nil {
		return err
	}
	n := int(dur / sliceDur)
	lr.cpuAt = make([]time.Duration, n+1)
	lr.sliceAt = make([]time.Duration, n+1)
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		for k := range lr.cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * sliceDur)))
			v, err := readCPUTime(d.pid())
			if err != nil {
				errc <- err
				return
			}
			lr.cpuAt[k], lr.sliceAt[k] = v, time.Since(start)
		}
		errc <- nil
	}()
	lr.win = runWindow(c, t, in.streams(seed, false), start, dur)
	if err := <-errc; err != nil {
		return err
	}
	if lr.peakRSS, err = readPeakRSS(d.pid()); err != nil {
		return err
	}
	lr.after, err = scrapeMetrics(c, d.base)
	return err
}

// slices returns, per one-second slice of the window (bounded by the
// CPU samples' own read times), the successful completions per second
// and the daemon's CPU time per completed request in microseconds.
func (lr *liveRun) slices() (rps, cpuUS []float64) {
	n := len(lr.sliceAt) - 1
	ok := make([]int, n)
	all := make([]int, n)
	for _, s := range lr.win.all() {
		k := sort.Search(len(lr.sliceAt), func(i int) bool { return lr.sliceAt[i] > s.at }) - 1
		if k >= 0 && k < n {
			all[k]++
			if s.status == http.StatusOK {
				ok[k]++
			}
		}
	}
	for k := 0; k < n; k++ {
		rps = append(rps, float64(ok[k])/(lr.sliceAt[k+1]-lr.sliceAt[k]).Seconds())
		cpuUS = append(cpuUS, float64((lr.cpuAt[k+1]-lr.cpuAt[k]).Microseconds())/float64(all[k]))
	}
	return rps, cpuUS
}

func (lr *liveRun) tally() {
	for _, s := range lr.win.all() {
		lr.attempted++
		if s.status != http.StatusOK {
			lr.failed++
		}
		lr.lat = append(lr.lat, float64(s.lat)/float64(time.Millisecond))
	}
	lr.failed += lr.check.failedReqs
	sort.Float64s(lr.lat)
}

// d returns the /metrics delta of one series over the window.
func (lr *liveRun) d(name string) float64 { return delta(lr.before, lr.after, name) }

func (lr *liveRun) shed() float64 {
	var n float64
	for name := range lr.after {
		if strings.HasPrefix(name, "jumpslice_http_shed_total") {
			n += lr.d(name)
		}
	}
	return n
}

func (lr *liveRun) hitRatio() float64 {
	hits := lr.d("jumpslice_cache_hits_total")
	lookups := hits + lr.d("jumpslice_cache_misses_total") + lr.d("jumpslice_cache_coalesced_total")
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}

func (lr *liveRun) perReq(name string) float64 { return lr.d(name) / float64(lr.attempted) }

func (lr *liveRun) tierShare(tier string) float64 {
	var total float64
	for _, t := range tierOrder {
		total += lr.d("jumpslice_http_incr_" + t + "_total")
	}
	if total == 0 {
		return 0
	}
	return lr.d("jumpslice_http_incr_"+tier+"_total") / total
}

func (lr *liveRun) p99() (float64, int) { return nearestRank(lr.lat, 99) }

// endToEnd returns the end-to-end metrics. error_rate is reported as
// its complement, success_rate, so that the metric is never zero.
func (lr *liveRun) endToEnd() map[string]metricValue {
	p50, _ := nearestRank(lr.lat, 50)
	p99, _ := lr.p99()
	rps, cpuUS := lr.slices()
	return map[string]metricValue{
		"throughput_rps":        {median(rps), "1/s"},
		"latency_p50_ms":        {p50, "ms"},
		"latency_p99_ms":        {p99, "ms"},
		"success_rate":          {1 - lr.errorRate(), "ratio"},
		"daemon_cpu_us_per_req": {median(cpuUS), "us"},
		"daemon_peak_rss_mb":    {float64(lr.peakRSS) / (1 << 20), "MiB"},
		"setup_s":               {median(lr.setupS), "s"},
	}
}

func (lr *liveRun) errorRate() float64 { return float64(lr.failed) / float64(lr.attempted) }

// correct reports whether every timed request succeeded: no transport
// error, no non-200 reply and no reply the checker rejected.
func (lr *liveRun) correct() bool { return lr.failed == 0 && lr.check.rejected == 0 }

// layerCounts returns the per-layer metrics the untraced window gives:
// the server's own time and the HTTP remainder, and the /metrics
// counts.
func (lr *liveRun) layerCounts() map[string]metricValue {
	var server, client float64
	var n int
	for _, s := range lr.win.all() {
		if s.durNS >= 0 {
			server += float64(s.durNS) / 1e3
			client += float64(s.lat.Nanoseconds()) / 1e3
			n++
		}
	}
	slices := lr.d("jumpslice_core_slices_total")
	examined := lr.d("jumpslice_core_jumps_examined_total")
	m := map[string]metricValue{
		"sliced.server_us":              {safeDiv(server, float64(n)), "us"},
		"sliced.http_us":                {safeDiv(client-server, float64(n)), "us"},
		"slicecache.hit_ratio":          {lr.hitRatio(), "ratio"},
		"slicecache.evictions_per_req":  {lr.perReq("jumpslice_cache_evictions_total"), "count"},
		"slicecache.resident_mb":        {lr.after["jumpslice_cache_resident_bytes"] / (1 << 20), "MiB"},
		"core.traversals_per_slice":     {safeDiv(lr.d("jumpslice_core_fixpoint_traversals_total"), slices), "count"},
		"core.jumps_examined_per_slice": {safeDiv(examined, slices), "count"},
		"core.jump_admit_ratio":         {safeDiv(lr.d("jumpslice_core_jumps_admitted_total"), examined), "ratio"},
		"core.slice_nodes_mean":         {safeDiv(lr.d("jumpslice_core_slice_nodes_sum"), lr.d("jumpslice_core_slice_nodes_count")), "count"},
	}
	for _, t := range tierOrder {
		m["core.reanalyze_"+t+"_share"] = metricValue{lr.tierShare(t), "ratio"}
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfChecks reports every way the run drifted from its workload's
// definition; a drifted run measures something else and is refused.
func (lr *liveRun) selfChecks() []string {
	var out []string
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if n := lr.shed(); n != 0 {
		fail("%v requests shed", n)
	}
	if _, beyond := lr.p99(); beyond < minBeyond {
		fail("p99 has %d samples beyond it, want at least %d", beyond, minBeyond)
	}
	switch lr.wl {
	case wlHot:
		if r := lr.hitRatio(); r < 0.99 {
			fail("hit ratio %.4f, want at least 0.99", r)
		}
	case wlCold:
		if r := lr.hitRatio(); r != 0 {
			fail("hit ratio %.4f, want 0", r)
		}
		if e := lr.perReq("jumpslice_cache_evictions_total"); e < 0.9 {
			fail("%.3f evictions per request, want the cache at budget (at least 0.9)", e)
		}
	case wlEdit:
		for _, t := range tierOrder {
			if got, want := lr.tierShare(t), tierShare[t]; got < want-0.1 || got > want+0.1 {
				fail("%s tier share %.3f, want %.2f±0.10", t, got, want)
			}
		}
	}
	return out
}

// print writes the human-readable report of a live run.
func (lr *liveRun) print() {
	e := lr.endToEnd()
	_, beyond := lr.p99()
	fmt.Printf("\n== %s: %d requests in %.2fs (%d failed); %d distinct responses checked\n",
		lr.wl, lr.attempted, lr.win.elapsed.Seconds(), lr.failed, lr.check.distinct)
	rows := []struct{ name, unit string }{
		{"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
		{"error_rate", "ratio"}, {"daemon_cpu_us_per_req", "us"}, {"daemon_peak_rss_mb", "MiB"}, {"setup_s", "s"},
	}
	for _, r := range rows {
		v := e[r.name].Value
		note := ""
		switch r.name {
		case "error_rate":
			v = lr.errorRate()
			note = "(JSON reports success_rate = 1 - error_rate)"
		case "latency_p99_ms":
			note = fmt.Sprintf("(nearest rank over %d samples, %d beyond)", len(lr.lat), beyond)
		case "setup_s":
			note = fmt.Sprintf("(median of %d set-ups: %s)", len(lr.setupS), fmtFloats(lr.setupS, 3))
		}
		fmt.Printf("  %-24s %12.4f %-6s %s\n", r.name, v, r.unit, note)
	}
	c := lr.check
	fmt.Printf("  checker: %d rejected responses, %d failed requests, %d Weiser checks skipped on step-budget divergence\n",
		c.rejected, c.failedReqs, c.diverged)
	fmt.Printf("  bh_disagree_share %.4f (%d of %d responses keep more lines than Ball–Horwitz)\n",
		safeDiv(float64(c.bhDiffers), float64(c.distinct)), c.bhDiffers, c.distinct)
	fmt.Printf("  output digest (first 32 replies per client): %s\n", c.digest)
	var setupTotal float64
	for _, x := range lr.setupS {
		setupTotal += x
	}
	rps, cpuUS := lr.slices()
	fmt.Printf("  per-second throughput (median reported): %s\n", fmtFloats(rps, 0))
	fmt.Printf("  per-second daemon us/req (median reported): %s\n", fmtFloats(cpuUS, 0))
	fmt.Printf("  run phases: inputs %.1fs, set-ups %.1fs, window %.1fs, check %.1fs\n",
		lr.prepareS, setupTotal, lr.win.elapsed.Seconds(), lr.checkS)
	for _, msg := range c.firstErrs {
		fmt.Printf("  REJECTED: %s\n", msg)
	}
	counts := lr.layerCounts()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  window counts (/metrics deltas):")
	for i, n := range names {
		if i%3 == 0 {
			fmt.Printf("\n   ")
		}
		fmt.Printf(" %s=%.4g", n, counts[n].Value)
	}
	fmt.Println()
}

func fmtFloats(xs []float64, prec int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(s, " ")
}
