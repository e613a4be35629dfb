package main

// The traced replay. It feeds a workload's request sequence in-process
// through the layers' public functions, in the order the daemon calls
// them, and records a span around each call: name, start, end, parent
// and request. The analysis phases inside core come from core's own
// phase spans, read back from an obs tracer. Spans are kept in memory
// and written out when the replay ends; a layer's figure is its self
// time, the span's duration minus its children's.
//
// Each replay also runs with spans off — no benchmark spans and no obs
// tracer — and the difference in wall time between the two is the
// tracing overhead.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"jumpslice/internal/core"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache"
)

// span is one recorded layer call. Times are nanoseconds since the
// replay started; Parent is an index into the same span list, -1 at
// the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// spanRec records spans; with on false every method is a no-op.
type spanRec struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int32
	req   int32

	// fr collects core's phase spans; seq separates calls.
	fr  *obs.FlightRecorder
	seq uint64
}

func newSpanRec(on bool) *spanRec {
	r := &spanRec{on: on, t0: time.Now()}
	if on {
		r.fr = obs.NewFlightRecorder(64)
	}
	return r
}

func (r *spanRec) begin(name string) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Req: r.req})
	id := int32(len(r.spans) - 1)
	r.stack = append(r.stack, id)
	return id
}

func (r *spanRec) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// tracer returns an obs tracer for one core call (nil when off).
func (r *spanRec) tracer() *obs.Tracer {
	if !r.on {
		return nil
	}
	r.seq++
	return obs.NewTracer(r.fr).ForRequest(r.seq)
}

// phaseNames maps core's phase spans to layer names. Worklist
// construction is left out, so it counts as core.analyze self time.
var phaseNames = map[string]string{
	"phase.analyze.cfg":            "cfg.build",
	"phase.analyze.postdominators": "dom.postdominators",
	"phase.analyze.cdg":            "cdg.build",
	"phase.analyze.dataflow":       "dataflow.reach",
	"phase.analyze.pdg":            "pdg.build",
	"phase.analyze.lst":            "lst.build",
}

// adoptPhases turns the phase spans of the last core call into child
// spans of outer (a core.analyze or core.reanalyze span). A cold
// analysis run inside a reanalysis becomes a core.analyze child of it.
func (r *spanRec) adoptPhases(outer int32) {
	t0 := r.t0.UnixNano()
	evs := r.fr.RequestEvents(r.seq)
	add := func(e obs.Event, name string, parent int32) int32 {
		r.spans = append(r.spans, span{Name: name, Start: e.TS - t0, End: e.TS - t0 + e.Dur, Parent: parent, Req: r.req})
		return int32(len(r.spans) - 1)
	}
	parent := outer
	if r.spans[outer].Name == "core.reanalyze" {
		for _, e := range evs {
			if e.Kind == obs.KindSpan && e.Name == "phase.analyze" {
				parent = add(e, "core.analyze", outer)
			}
		}
	}
	for _, e := range evs {
		if name := phaseNames[e.Name]; e.Kind == obs.KindSpan && name != "" {
			add(e, name, parent)
		}
	}
}

// layerTime is one layer's aggregate self time.
type layerTime struct {
	selfNS int64
	calls  int
}

// selfTimes aggregates self time per span name.
func selfTimes(spans []span) map[string]*layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.selfNS += s.End - s.Start - child[i]
		lt.calls++
	}
	return out
}

// replayer holds the in-process stand-in for one daemon: the same
// cache configuration and a metrics registry, as the daemon builds
// them by default.
type replayer struct {
	rec   *spanRec
	reg   *obs.Registry
	cache *slicecache.Cache
	buf   bytes.Buffer
	sess  map[int]string // session → its current source
}

func newReplayer(on bool) *replayer {
	reg := obs.NewRegistry()
	return &replayer{
		rec:   newSpanRec(on),
		reg:   reg,
		cache: slicecache.New(slicecache.Options{MaxBytes: slicecache.DefaultMaxBytes, Recorder: reg}),
		sess:  map[int]string{},
	}
}

// requestTimeout is the daemon's default per-request deadline.
const requestTimeout = 10 * time.Second

// maxStmts is the daemon's default program size limit.
const maxStmts = 20000

// analyze mirrors the daemon's uncached analysis path: parse, the size
// gate, then the full pipeline.
func (p *replayer) analyze(ctx context.Context, src string) (*core.Analysis, error) {
	s := p.rec.begin("lang.parse")
	prog, err := lang.Parse(src)
	p.rec.end(s)
	if err != nil {
		return nil, err
	}
	if n := p.statements(prog); n > maxStmts {
		return nil, fmt.Errorf("program has %d statements, over the %d limit", n, maxStmts)
	}
	s = p.rec.begin("core.analyze")
	a, err := core.AnalyzeObservedContext(ctx, prog, p.reg, p.rec.tracer())
	p.rec.end(s)
	p.adopt(s)
	return a, err
}

// statements mirrors the daemon's statement-count walks: the size
// gate and the count each request reports in its wide event.
func (p *replayer) statements(prog *lang.Program) int {
	s := p.rec.begin("lang.statements")
	defer p.rec.end(s)
	return len(lang.Statements(prog))
}

// etag mirrors the daemon's strong validator, a SHA-256 over the
// whole request tuple, computed for every /slice request.
func (p *replayer) etag(r request) string {
	s := p.rec.begin("sliced.etag")
	defer p.rec.end(s)
	h := sha256.New()
	for _, part := range []string{"sliced-etag-v1", r.src, r.crit.Var, strconv.Itoa(r.crit.Line), "agrawal", strconv.FormatBool(r.explain)} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

func (p *replayer) adopt(outer int32) {
	if outer >= 0 {
		p.rec.adoptPhases(outer)
	}
}

// sliceResponse mirrors the daemon's /slice response for the encode
// step.
type sliceResponse struct {
	Request    uint64           `json:"request"`
	Algorithm  string           `json:"algorithm"`
	Var        string           `json:"var"`
	Line       int              `json:"line"`
	Lines      []int            `json:"lines"`
	JumpLines  []int            `json:"jump_lines,omitempty"`
	Traversals int              `json:"traversals,omitempty"`
	Text       string           `json:"text"`
	Reasons    map[int][]string `json:"reasons,omitempty"`
	Listing    string           `json:"listing,omitempty"`
	DurationNS int64            `json:"duration_ns"`
	// edit-session
	LinesAdded   []int           `json:"lines_added,omitempty"`
	LinesRemoved []int           `json:"lines_removed,omitempty"`
	Incremental  *core.IncrStats `json:"incremental,omitempty"`
}

// render mirrors the daemon's response assembly for slice sl.
func (p *replayer) render(a *core.Analysis, sl *core.Slice, r request) *sliceResponse {
	s := p.rec.begin("core.format")
	resp := &sliceResponse{Algorithm: sl.Algorithm, Var: r.crit.Var, Line: r.crit.Line,
		Lines: sl.Lines(), Traversals: sl.Traversals, Text: sl.Format()}
	for _, id := range sl.JumpsAdded {
		resp.JumpLines = append(resp.JumpLines, a.CFG.Nodes[id].Line)
	}
	p.rec.end(s)
	return resp
}

// encode mirrors the daemon's indented JSON write.
func (p *replayer) encode(resp *sliceResponse) error {
	s := p.rec.begin("sliced.encode")
	defer p.rec.end(s)
	p.buf.Reset()
	enc := json.NewEncoder(&p.buf)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

// slice replays one /slice request.
func (p *replayer) slice(r request) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = p.etag(r)
	s := p.rec.begin("slicecache.key")
	_ = slicecache.ResultKeyOf(r.src, r.crit.Var, strconv.Itoa(r.crit.Line), "agrawal", strconv.FormatBool(r.explain))
	p.rec.end(s)
	s = p.rec.begin("slicecache.get")
	cached, _, err := p.cache.Get(ctx, r.src, func(bctx context.Context) (*core.Analysis, error) {
		a, err := p.analyze(bctx, r.src)
		if err != nil {
			return nil, err
		}
		return a.Rebind(nil, p.reg, nil), nil
	})
	p.rec.end(s)
	if err != nil {
		return err
	}
	s = p.rec.begin("core.rebind")
	a := cached.Rebind(ctx, p.reg, nil)
	p.rec.end(s)
	_ = p.statements(a.Prog)
	s = p.rec.begin("core.agrawal")
	sl, err := a.Agrawal(r.crit)
	p.rec.end(s)
	if err != nil {
		return err
	}
	resp := p.render(a, sl, r)
	if r.explain {
		s = p.rec.begin("core.explain")
		pv, err := sl.Explain()
		if err == nil {
			resp.Reasons = pv.LineReasons()
			resp.Listing = pv.Listing()
		}
		p.rec.end(s)
		if err != nil {
			return err
		}
	}
	return p.encode(resp)
}

// open replays POST /session for session d.
func (p *replayer) open(d int, src string) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	a, err := p.analyze(ctx, src)
	if err != nil {
		return err
	}
	_ = p.statements(a.Prog) // the wide event's count
	_ = p.statements(a.Prog) // the response's count
	s := p.rec.begin("core.rebind")
	detached := a.Rebind(nil, p.reg, nil)
	p.rec.end(s)
	s = p.rec.begin("slicecache.put")
	p.cache.PutKey(slicecache.SessionKey(strconv.Itoa(d+1)), src, detached)
	p.rec.end(s)
	p.sess[d] = src
	return nil
}

// patch replays one PATCH /session/{id} one-line edit.
func (p *replayer) patch(r request) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	newSrc := applyEdit(p.sess[r.session], *r.edit)
	s := p.rec.begin("slicecache.key")
	key := slicecache.SessionKey(strconv.Itoa(r.session + 1))
	p.rec.end(s)
	s = p.rec.begin("slicecache.get")
	prev, ok := p.cache.GetKey(key)
	p.rec.end(s)
	if !ok {
		return fmt.Errorf("session %d evicted", r.session)
	}
	s = p.rec.begin("incremental.splice")
	prog, ok := incremental.SpliceLine(prev.Prog, r.edit.line, r.edit.text)
	p.rec.end(s)
	if !ok {
		return fmt.Errorf("edit of line %d did not splice", r.edit.line)
	}
	s = p.rec.begin("core.reanalyze")
	a, stats, err := core.ReanalyzeProgram(ctx, prev, prog, p.reg, p.rec.tracer())
	p.rec.end(s)
	p.adopt(s)
	if err != nil {
		return err
	}
	_ = p.statements(a.Prog)
	p.sess[r.session] = newSrc
	s = p.rec.begin("core.rebind")
	detached := a.Rebind(nil, p.reg, nil)
	p.rec.end(s)
	s = p.rec.begin("slicecache.put")
	p.cache.PutKey(key, newSrc, detached)
	p.rec.end(s)
	s = p.rec.begin("core.agrawal")
	sl, err := a.Agrawal(r.crit)
	p.rec.end(s)
	if err != nil {
		return err
	}
	resp := p.render(a, sl, r)
	resp.Incremental = stats
	// The daemon's sliceDelta: the pre-edit slice, then the line-level
	// difference in both directions.
	s = p.rec.begin("core.agrawal")
	psl, err := prev.Agrawal(r.crit)
	p.rec.end(s)
	if err != nil {
		return err
	}
	s = p.rec.begin("core.format")
	resp.LinesAdded = diffLines(sl.Nodes.Diff(psl.Nodes), a)
	resp.LinesRemoved = diffLines(psl.Nodes.Diff(sl.Nodes), prev)
	p.rec.end(s)
	return p.encode(resp)
}

// diffLines maps a node-set difference to its sorted distinct lines.
func diffLines(d interface{ Next(int) int }, a *core.Analysis) []int {
	seen := map[int]bool{}
	var lines []int
	for i := d.Next(0); i >= 0; i = d.Next(i + 1) {
		if l := a.CFG.Nodes[i].Line; l > 0 && !seen[l] {
			seen[l] = true
			lines = append(lines, l)
		}
	}
	sort.Ints(lines)
	return lines
}

// fillCache brings the replay cache to its byte budget, as cold-miss
// set-up does for the daemon, so every insert evicts. The filler
// entries share one analysis under distinct keys; only their byte
// accounting matters.
func (p *replayer) fillCache(src string) error {
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	a, err := core.Analyze(prog)
	if err != nil {
		return err
	}
	for i := 0; p.cache.Stats().Evictions < 4*16; i++ {
		p.cache.PutKey(slicecache.SessionKey(fmt.Sprintf("fill-%d", i)), src, a)
	}
	return nil
}

// replayPlan is one workload's replay input: set-up steps then the
// request sequence, client streams interleaved.
type replayPlan struct {
	workload string
	setup    func(p *replayer) error
	reqs     []request
}

// replayResult is one workload's replay outcome.
type replayResult struct {
	layers   map[string]*layerTime // traced passes, summed
	tracedNS []int64               // wall time of each traced pass
	plainNS  []int64               // wall time of each untraced pass
	spans    int
}

// replayPasses is how many traced and untraced passes each replay
// makes, alternating.
const replayPasses = 3

// runReplay replays plan with spans on and off, alternating, and
// writes the spans of the first traced pass to spanFile.
func runReplay(plan *replayPlan, spanFile string) (*replayResult, error) {
	res := &replayResult{layers: map[string]*layerTime{}}
	for pass := 0; pass < 2*replayPasses; pass++ {
		on := pass%2 == 0
		p := newReplayer(on)
		p.rec.req = -1 // set-up spans belong to no request
		start := time.Now()
		if err := plan.setup(p); err != nil {
			return nil, fmt.Errorf("%s replay set-up: %w", plan.workload, err)
		}
		for i, r := range plan.reqs {
			p.rec.req = int32(i)
			var err error
			if r.edit != nil {
				err = p.patch(r)
			} else {
				err = p.slice(r)
			}
			if err != nil {
				return nil, fmt.Errorf("%s replay request %d: %w", plan.workload, i, err)
			}
		}
		wall := time.Since(start).Nanoseconds()
		if !on {
			res.plainNS = append(res.plainNS, wall)
			continue
		}
		res.tracedNS = append(res.tracedNS, wall)
		for name, lt := range selfTimes(p.rec.spans) {
			agg := res.layers[name]
			if agg == nil {
				agg = &layerTime{}
				res.layers[name] = agg
			}
			agg.selfNS += lt.selfNS
			agg.calls += lt.calls
		}
		if pass == 0 {
			res.spans = len(p.rec.spans)
			if err := writeSpans(spanFile, p.rec.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// overhead is the tracing overhead: the median, over adjacent pairs of
// a traced and an untraced pass, of their wall-time ratio minus one.
// Pairing keeps a drift in machine speed out of the ratio.
func (r *replayResult) overhead() float64 {
	ratios := make([]float64, len(r.tracedNS))
	for i := range ratios {
		ratios[i] = float64(r.tracedNS[i])/float64(r.plainNS[i]) - 1
	}
	return median(ratios)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replay sizes: how many requests of each workload's sequence the
// traced replay feeds through (after its set-up).
var replaySize = map[string]int{wlHot: 1000, wlCold: 80, wlEdit: 250}

// workloadLayers lists, per workload, the layers its replay records —
// the per-layer timing metrics it reports.
var workloadLayers = map[string][]string{
	wlHot: {"lang.parse", "lang.statements", "cfg.build", "dom.postdominators", "cdg.build", "dataflow.reach", "pdg.build", "lst.build", "core.analyze",
		"sliced.etag", "slicecache.key", "slicecache.get", "core.rebind", "core.agrawal", "core.format", "core.explain", "sliced.encode"},
	wlCold: {"lang.parse", "lang.statements", "cfg.build", "dom.postdominators", "cdg.build", "dataflow.reach", "pdg.build", "lst.build", "core.analyze",
		"sliced.etag", "slicecache.key", "slicecache.get", "core.rebind", "core.agrawal", "core.format", "sliced.encode"},
	wlEdit: {"lang.parse", "lang.statements", "cfg.build", "dom.postdominators", "cdg.build", "dataflow.reach", "pdg.build", "lst.build", "core.analyze",
		"slicecache.key", "slicecache.get", "incremental.splice", "core.reanalyze", "slicecache.put", "core.rebind",
		"core.agrawal", "core.format", "sliced.encode"},
}

// shouldMove names the end-to-end metric each layer is expected to
// move, as the benchmark's definition records it.
func shouldMove(layer string) string {
	switch layer {
	case "lang.parse", "cfg.build", "dom.postdominators", "cdg.build", "dataflow.reach", "pdg.build", "lst.build", "core.analyze":
		return "cold-miss throughput/p50/cpu; hot-hit setup_s"
	case "core.explain":
		return "hot-hit p99"
	case "incremental.splice", "core.reanalyze", "slicecache.put":
		return "edit-session p50/throughput"
	}
	return "hot-hit throughput/p50/cpu"
}

// replayPlanFor builds a workload's replay: its set-up, then the first
// replaySize requests of its client streams, interleaved.
func replayPlanFor(wl string, seed int64) *replayPlan {
	in := prepare(wl, seed)
	plan := &replayPlan{workload: wl}
	switch wl {
	case wlHot:
		warm := in.hot.warmup()
		plan.setup = func(p *replayer) error {
			for _, r := range warm {
				if err := p.slice(r); err != nil {
					return err
				}
			}
			return nil
		}
	case wlCold:
		plan.setup = func(p *replayer) error { return p.fillCache(in.cold.shapes[0].src) }
	case wlEdit:
		plan.setup = func(p *replayer) error {
			for d, s := range in.sess {
				if err := p.open(d, s.base.src); err != nil {
					return err
				}
			}
			return nil
		}
	}
	streams := in.streams(seed, false)
	for i := 0; i < replaySize[wl]; i++ {
		plan.reqs = append(plan.reqs, streams[i%clients].next())
	}
	return plan
}

// runReplays replays every workload and returns the per-layer timing
// metrics, named <workload>.<layer>_us, plus each replay's tracing
// overhead.
func runReplays(seed int64, out string) (map[string]metricValue, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	m := map[string]metricValue{}
	for _, wl := range workloadNames {
		file := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl, seed))
		res, err := runReplay(replayPlanFor(wl, seed), file)
		if err != nil {
			return nil, err
		}
		var total int64
		for _, ns := range res.tracedNS {
			total += ns
		}
		fmt.Printf("\n== traced replay of %s: %d requests after set-up, %d spans per pass written to %s\n",
			wl, replaySize[wl], res.spans, file)
		fmt.Printf("  tracing overhead %+.2f%% (traced %s ms vs untraced %s ms per pass)\n",
			100*res.overhead(), fmtMS(res.tracedNS), fmtMS(res.plainNS))
		fmt.Printf("  %-20s %12s %8s %7s  %s\n", "layer", "self us/call", "calls", "share", "should move")
		for _, layer := range workloadLayers[wl] {
			lt := res.layers[layer]
			if lt == nil || lt.calls == 0 {
				return nil, fmt.Errorf("%s replay recorded no %s span", wl, layer)
			}
			us := float64(lt.selfNS) / float64(lt.calls) / 1e3
			fmt.Printf("  %-20s %12.2f %8d %6.1f%%  %s\n", layer, us, lt.calls/replayPasses,
				100*float64(lt.selfNS)/float64(total), shouldMove(layer))
			m[fmt.Sprintf("%s.%s_us", wl, layer)] = metricValue{us, "us"}
		}
		m[wl+".replay.tracing_overhead_pct"] = metricValue{100 * res.overhead(), "%"}
	}
	return m, nil
}

func fmtMS(ns []int64) string {
	s := make([]string, len(ns))
	for i, n := range ns {
		s[i] = fmt.Sprintf("%.1f", float64(n)/1e6)
	}
	return strings.Join(s, "/")
}
