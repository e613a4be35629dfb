package main

// The output checker. Every distinct response of a run — each distinct
// body one request tuple received — is checked once against that
// request, after the timed window:
//
//   - the slice text, with each statement back on its original line,
//     parses;
//   - under internal/interp, on fixed inputs, the slice reproduces the
//     original program's observations of the criterion (Weiser's
//     condition); a run that exhausts the step budget skips this check
//     and is counted;
//   - lines is a superset of the Ball–Horwitz slice, every line is
//     printed in the text, every simple statement the text prints is
//     in lines, and jump_lines ⊆ lines;
//   - explain responses give at least one reason for every line;
//   - edit-session responses report the tier their edit targets and a
//     lines_added/lines_removed delta consistent with the slices
//     before and after the edit.
//
// checkWindow adds the repeat invariants: equal request keys must carry
// equal content hashes, and equal (program, criterion) pairs must
// carry equal lines, text and jump_lines.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"jumpslice/internal/baselines"
	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/interp"
	"jumpslice/internal/lang"
)

// response is the part of a /slice or PATCH /session reply the checker
// reads.
type response struct {
	Var          string              `json:"var"`
	Line         int                 `json:"line"`
	Lines        []int               `json:"lines"`
	JumpLines    []int               `json:"jump_lines"`
	Text         string              `json:"text"`
	Reasons      map[string][]string `json:"reasons"`
	Listing      string              `json:"listing"`
	LinesAdded   []int               `json:"lines_added"`
	LinesRemoved []int               `json:"lines_removed"`
	Incremental  *struct {
		Outcome string `json:"outcome"`
	} `json:"incremental"`
}

// checkInputs are the fixed input streams of the Weiser check.
var checkInputs = [][]int64{nil, {1, 2, 3}, {-5, 7, 0, 2, 9, -1}, {8, 8, -8, 8}, {0, 0, 0, 1, 1, 1}}

// checkStepBudget bounds each interpreter run of the Weiser check.
const checkStepBudget = 200000

// verdict is the checker's account of one response.
type verdict struct {
	err       error // nil when the response passed
	diverged  bool  // a step-budget divergence skipped the Weiser check
	bhDiffers bool  // lines is a strict superset of Ball–Horwitz
}

// origin is the checker's work on one original program, shared by
// every response about it: its analysis, and its per-criterion
// Ball–Horwitz lines and observations. One goroutine owns an origin.
type origin struct {
	prog *lang.Program
	an   *core.Analysis
	bh   map[core.Criterion][]int
	obs  map[core.Criterion][][]int64 // nil entry: the original diverged
}

func newOrigin(src string) (*origin, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	an, err := core.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return &origin{prog: prog, an: an, bh: map[core.Criterion][]int{}, obs: map[core.Criterion][][]int64{}}, nil
}

// ballHorwitz returns the Ball–Horwitz slice lines of crit.
func (o *origin) ballHorwitz(crit core.Criterion) ([]int, error) {
	if lines, ok := o.bh[crit]; ok {
		return lines, nil
	}
	sl, err := baselines.BallHorwitz(o.an, crit)
	if err != nil {
		return nil, err
	}
	o.bh[crit] = sl.Lines()
	return o.bh[crit], nil
}

// observations returns the original program's criterion observations
// on every check input, or nil if any run exhausts the step budget.
func (o *origin) observations(crit core.Criterion) ([][]int64, error) {
	if obs, ok := o.obs[crit]; ok {
		return obs, nil
	}
	obs, err := observe(o.an.CFG, crit)
	if err != nil {
		return nil, err
	}
	o.obs[crit] = obs
	return obs, nil
}

// observe runs a program's flowgraph on every check input; nil means
// a run diverged.
func observe(g *cfg.Graph, crit core.Criterion) ([][]int64, error) {
	var out [][]int64
	for _, in := range checkInputs {
		res, err := interp.RunCFG(g, interp.Options{Input: in, ObserveVar: crit.Var, ObserveLine: crit.Line, MaxSteps: checkStepBudget})
		if errors.Is(err, interp.ErrStepBudget) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, res.Observations)
	}
	return out, nil
}

// check verifies one decoded response to a request for crit on the
// origin's program.
func (o *origin) check(crit core.Criterion, explain bool, r *response) verdict {
	var v verdict
	fail := func(format string, args ...any) verdict {
		v.err = fmt.Errorf(format, args...)
		return v
	}
	if r.Var != crit.Var || r.Line != crit.Line {
		return fail("answered criterion %s@%d, asked %s", r.Var, r.Line, crit)
	}
	// The text, with each statement on its original line, must parse.
	placed, printed, simple := placeOnLines(r.Text)
	sliced, err := lang.Parse(placed)
	if err != nil {
		return fail("slice text does not parse: %v", err)
	}
	// lines, text and jump_lines must agree with each other.
	inLines := map[int]bool{}
	for _, l := range r.Lines {
		inLines[l] = true
		if !printed[l] {
			return fail("line %d is in lines but not in the text", l)
		}
	}
	for l := range simple {
		if !inLines[l] {
			return fail("text prints statement line %d, which lines omits", l)
		}
	}
	for _, l := range r.JumpLines {
		if !inLines[l] {
			return fail("jump line %d is not in lines", l)
		}
	}
	// lines ⊇ Ball–Horwitz.
	bh, err := o.ballHorwitz(crit)
	if err != nil {
		return fail("ball-horwitz: %v", err)
	}
	for _, l := range bh {
		if !inLines[l] {
			return fail("line %d of the Ball–Horwitz slice is missing", l)
		}
	}
	v.bhDiffers = len(bh) != len(r.Lines)
	// Weiser's condition on the fixed inputs.
	want, err := o.observations(crit)
	if err != nil {
		return fail("running the original: %v", err)
	}
	g, err := cfg.Build(sliced)
	if err != nil {
		return fail("slice text has no flowgraph: %v", err)
	}
	got, err := observe(g, crit)
	if err != nil {
		return fail("running the slice: %v", err)
	}
	if want == nil || got == nil {
		v.diverged = true
	} else {
		for i := range want {
			if !equalInts(want[i], got[i]) {
				return fail("slice observes %v on input %v, the program %v", got[i], checkInputs[i], want[i])
			}
		}
	}
	if explain {
		if r.Listing == "" {
			return fail("explain response without a listing")
		}
		for _, l := range r.Lines {
			if len(r.Reasons[strconv.Itoa(l)]) == 0 {
				return fail("explain gives no reason for line %d", l)
			}
		}
	}
	return v
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	numbered = regexp.MustCompile(`^\s*([0-9]+): (.*)$`)
	// compoundOrLabel matches printed lines that are not simple
	// statements: compound headers, case labels, and bare labels.
	compoundOrLabel = regexp.MustCompile(`^\s*(?:[A-Za-z_][A-Za-z0-9_]*:\s*)*(?:if |while |switch |case |default:|\{|$)`)
)

// placeOnLines rebuilds a source from a line-numbered slice listing,
// putting each numbered line's text on that source line; unnumbered
// lines (closing braces, else, trailing labels) join the line above.
// It also returns the numbered lines, and those holding a simple
// statement.
func placeOnLines(text string) (src string, printed, simple map[int]bool) {
	printed, simple = map[int]bool{}, map[int]bool{}
	var out []string
	cur := 0
	for _, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if m := numbered.FindStringSubmatch(l); m != nil {
			n, _ := strconv.Atoi(m[1])
			for len(out) < n {
				out = append(out, "")
			}
			out[n-1] += " " + m[2]
			cur = n
			printed[n] = true
			if !compoundOrLabel.MatchString(m[2]) {
				simple[n] = true
			}
			continue
		}
		if cur == 0 {
			out = append(out, "")
			cur = 1
		}
		out[cur-1] += " " + strings.TrimSpace(l)
	}
	return strings.Join(out, "\n") + "\n", printed, simple
}

// sliceDigest hashes the content fields of a response — what must be
// byte-identical across commits that keep slices unchanged.
func sliceDigest(w io.Writer, r *response) {
	b, _ := json.Marshal(struct {
		Lines     []int  `json:"lines"`
		JumpLines []int  `json:"jump_lines"`
		Text      string `json:"text"`
	}{r.Lines, r.JumpLines, r.Text})
	w.Write(b)
	w.Write([]byte{'\n'})
}

// checkReport summarizes the checker over one run.
type checkReport struct {
	distinct   int // distinct responses checked
	rejected   int // distinct responses that failed a check
	failedReqs int // timed requests answered by a rejected response or a repeat mismatch
	diverged   int // responses whose Weiser check was skipped
	bhDiffers  int // responses keeping more lines than Ball–Horwitz
	digest     string
	firstErrs  []string
}

// checkWindow checks every distinct response of a window and the
// repeat invariants across all its samples. sess gives the
// edit-session sessions (nil otherwise).
func checkWindow(w *window, sess []*session) *checkReport {
	type item struct {
		rp   reply
		sb   storedBody
		r    *response
		v    verdict
		src  string
		crit core.Criterion
	}
	items := make([]*item, 0, len(w.bodies.m))
	bySrc := map[string][]*item{}
	var srcs []string
	for rp, sb := range w.bodies.m {
		it := &item{rp: rp, sb: sb, src: sb.req.src, crit: sb.req.crit}
		if sb.req.edit != nil {
			it.src = sess[sb.req.session].version(sb.req.to)
		}
		items = append(items, it)
		if bySrc[it.src] == nil {
			srcs = append(srcs, it.src)
		}
		bySrc[it.src] = append(bySrc[it.src], it)
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i].rp, items[j].rp
		return a.key < b.key || a.key == b.key && a.hash < b.hash
	})
	sort.Strings(srcs)
	// Check program by program on two workers, so each program is
	// analyzed once and its analysis dropped when its responses are
	// done; the daemon has been stopped by now.
	var wg sync.WaitGroup
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(srcs); i += 2 {
				group := bySrc[srcs[i]]
				o, err := newOrigin(srcs[i])
				for _, it := range group {
					it.r = &response{}
					switch {
					case err != nil:
						it.v.err = fmt.Errorf("original program: %v", err)
					case json.Unmarshal(it.sb.body, it.r) != nil:
						it.v.err = fmt.Errorf("undecodable response")
					default:
						it.v = o.check(it.crit, it.sb.req.explain, it.r)
					}
					if e := it.sb.req.edit; it.v.err == nil && e != nil && (it.r.Incremental == nil || it.r.Incremental.Outcome != e.tier) {
						it.v.err = fmt.Errorf("edit meant for the %s tier was answered by another", e.tier)
					}
				}
			}
		}(wk)
	}
	wg.Wait()

	rep := &checkReport{distinct: len(items)}
	bad := map[reply]bool{}
	byReply := map[reply]*item{}
	note := func(format string, args ...any) {
		if len(rep.firstErrs) < 5 {
			rep.firstErrs = append(rep.firstErrs, fmt.Sprintf(format, args...))
		}
	}
	for _, it := range items {
		byReply[it.rp] = it
		if it.v.err != nil {
			rep.rejected++
			bad[it.rp] = true
			note("%s@%d: %v", it.crit.Var, it.crit.Line, it.v.err)
		}
		if it.v.diverged {
			rep.diverged++
		}
		if it.v.bhDiffers {
			rep.bhDiffers++
		}
	}
	// Repeat invariants: one content hash per request key, and one
	// (lines, text, jump_lines) per program version and criterion.
	keyHash := map[int]uint64{}
	content := map[string]string{}
	for _, it := range items {
		if it.r == nil || it.v.err != nil {
			continue
		}
		k := fmt.Sprintf("%x|%s", sha256.Sum256([]byte(it.src)), it.crit)
		var b strings.Builder
		sliceDigest(&b, it.r)
		if prev, ok := content[k]; ok && prev != b.String() {
			bad[it.rp] = true
			rep.rejected++
			note("%s: differing slices for one program and criterion", it.crit)
		}
		content[k] = b.String()
	}
	// Edit deltas: lines_added/lines_removed against the slices of the
	// versions before and after.
	if sess != nil {
		linesOf := map[[2]int][]int{} // (session, version) → lines
		for _, it := range items {
			if it.r != nil && it.v.err == nil {
				linesOf[[2]int{it.sb.req.session, it.sb.req.to}] = it.r.Lines
			}
		}
		for _, it := range items {
			if it.r == nil || it.v.err != nil {
				continue
			}
			before, ok := linesOf[[2]int{it.sb.req.session, it.sb.req.from}]
			if !ok {
				continue
			}
			if err := checkDelta(before, it.r); err != nil {
				bad[it.rp] = true
				rep.rejected++
				note("edit delta: %v", err)
			}
		}
	}
	for _, s := range w.all() {
		if s.status != 200 {
			continue
		}
		if prev, ok := keyHash[s.req.key]; ok && prev != s.hash {
			rep.failedReqs++
			note("request key %d answered with differing content", s.req.key)
			continue
		}
		keyHash[s.req.key] = s.hash
		if bad[reply{s.req.key, s.hash}] {
			rep.failedReqs++
		}
	}
	// Digest over the fixed verification set: the first 32 replies of
	// each client, in send order — the same requests on every run of a
	// seed.
	d := sha256.New()
	for _, cs := range w.samples {
		for i := 0; i < len(cs) && i < 32; i++ {
			if it := byReply[reply{cs[i].req.key, cs[i].hash}]; it != nil && it.r != nil && cs[i].status == 200 {
				sliceDigest(d, it.r)
			} else {
				d.Write([]byte("error\n"))
			}
		}
	}
	rep.digest = hex.EncodeToString(d.Sum(nil))[:16]
	return rep
}

// checkDelta verifies an edit reply's delta against the slice lines of
// the version before the edit.
func checkDelta(before []int, r *response) error {
	b, a := setOf(before), setOf(r.Lines)
	added, removed := setOf(r.LinesAdded), setOf(r.LinesRemoved)
	for l := range a {
		if !b[l] && !added[l] {
			return fmt.Errorf("line %d joined the slice but is not in lines_added", l)
		}
	}
	for l := range b {
		if !a[l] && !removed[l] {
			return fmt.Errorf("line %d left the slice but is not in lines_removed", l)
		}
	}
	for l := range added {
		if !a[l] {
			return fmt.Errorf("lines_added holds %d, which is not in the slice", l)
		}
	}
	for l := range removed {
		if !b[l] {
			return fmt.Errorf("lines_removed holds %d, which was not in the slice", l)
		}
	}
	return nil
}

func setOf(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
