package main

// Workload inputs. Everything in this file is a pure function of the
// seed: the same seed yields the same programs, criteria, edits and
// request streams, and the daemon only ever sees what is generated
// here.

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// Workload names, as --workload takes them.
const (
	wlHot  = "hot-hit"
	wlCold = "cold-miss"
	wlEdit = "edit-session"
)

var workloadNames = []string{wlHot, wlCold, wlEdit}

// Shape of each workload's inputs. Program sizes are progen size
// parameters: a structured program has about 1.7 statements per unit
// of size and an unstructured one about 1.24, so with the two in equal
// halves 136 and 272 give the ~200- and ~400-statement programs the
// workloads are defined on (README.md lists the measured counts).
const (
	hotPrograms   = 64   // fixed hot-hit corpus size
	hotStmts      = 136  // progen size of a hot-hit program
	hotCrits      = 8    // at most this many write criteria per hot-hit program (~7 on average)
	hotExplain    = 0.05 // share of hot-hit requests with explain=1
	hotZipfS      = 0.8  // zipf skew of hot-hit program popularity: P(rank k) ∝ (1+k)^-hotZipfS
	coldShapes    = 128  // generated shapes cold-miss programs are drawn from
	coldStmts     = 272  // progen size of a cold-miss program
	coldWarmup    = 480  // distinct programs sent to fill the cache in set-up
	editStmts     = 272  // progen size of an edit-session program
	editDocs      = 32   // open sessions in edit-session, split over the clients
	editPool      = 15   // distinct one-line edits per session
	clients       = 2    // closed-loop clients
	heldOutSeed   = 7919 // seed kept out of tuning, for confirming later claims
	uniqueConstLo = 100000
)

// The hot-hit skew follows Breslau et al., "Web Caching and Zipf-like
// Distributions: Evidence and Implications" (INFOCOM 1999), whose
// cache request traces fit zipf exponents of 0.64 to 0.83. sliceload's
// default of 1.2 was tried and left out: with it a handful of programs
// carry most of the traffic, so the seed picks much of the workload's
// cost (with one popularity order shared by both clients, the quartile
// spread of throughput over seeds 1-10 was 9% of the median with 1.2
// and 6% with 0.8).

// Intended shares of the three incremental tiers in edit-session. No
// record of real editing traffic exists to draw them from, so the
// tiers get equal shares.
var tierShare = map[string]float64{"patched": 1.0 / 3, "partial": 1.0 / 3, "full": 1.0 / 3}

var tierOrder = []string{"patched", "partial", "full"}

// program is one generated input: its source text exactly as sent, and
// the write criteria it offers, resolved against that text.
type program struct {
	src   string
	crits []core.Criterion
}

// mix derives an independent sub-seed from the run seed and a stream
// label (splitmix64 finalizer), so corpora, clients and edit pools
// never share a random stream.
func mix(seed int64, label string, i int) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(label) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= uint64(i) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h & (1<<63 - 1))
}

// generate builds one program with progen. Even indices are
// structured (break/continue/return and forward gotos), odd ones flat
// unstructured goto programs, so every corpus is an equal mix of both
// jump styles.
func generate(seed int64, label string, i, stmts int) program {
	cfg := progen.Config{Seed: mix(seed, label, i), Stmts: stmts}
	var p *lang.Program
	if i%2 == 0 {
		p = progen.Structured(cfg)
	} else {
		p = progen.Unstructured(cfg)
	}
	src := lang.Format(p, lang.PrintOptions{})
	// Criteria are resolved on the text the daemon will parse, so their
	// lines are the ones the daemon sees.
	var crits []core.Criterion
	for _, c := range progen.WriteCriteria(lang.MustParse(src)) {
		crits = append(crits, core.Criterion{Var: c.Var, Line: c.Line})
	}
	return program{src: src, crits: crits}
}

// generateAll runs generate for indices [0, n) on two goroutines; the
// result does not depend on the scheduling.
func generateAll(seed int64, label string, n, stmts int) []program {
	out := make([]program, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				out[i] = generate(seed, label, i, stmts)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// request is one HTTP request a client sends, plus what the checker
// needs to know about it.
type request struct {
	// key identifies the request tuple: equal keys must get
	// byte-identical answers (volatile fields aside).
	key     int
	src     string
	crit    core.Criterion
	explain bool
	// edit-session only: the session, the program versions before
	// and after this edit, and the edit itself.
	session  int
	from, to int
	edit     *edit
}

// stream is one client's deterministic request sequence.
type stream interface{ next() request }

// ---- hot-hit -------------------------------------------------------

// hotCorpus is the fixed hot-hit corpus: programs and, per client,
// the popularity order the zipf ranks map through. Each client has its
// own order, as two users of one code base each have their own hot
// files.
type hotCorpus struct {
	progs []program
	rank  [clients][]int // client, rank → program index
	cdf   []float64      // cumulative popularity of ranks 0..k
}

// zipfCDF returns the cumulative distribution of P(rank k) ∝
// (1+k)^-s over n ranks. It is built by hand because rand.Zipf takes
// only s > 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for k := range cdf {
		total += math.Pow(1+float64(k), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1
	return cdf
}

func newHotCorpus(seed int64) *hotCorpus {
	progs := generateAll(seed, "hot", hotPrograms, hotStmts)
	rng := rand.New(rand.NewSource(mix(seed, "hot-crits", 0)))
	for i := range progs {
		cs := progs[i].crits
		rng.Shuffle(len(cs), func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
		if len(cs) > hotCrits {
			progs[i].crits = cs[:hotCrits]
		}
	}
	c := &hotCorpus{progs: progs, cdf: zipfCDF(hotPrograms, hotZipfS)}
	for i := range c.rank {
		c.rank[i] = popularity(rng)
	}
	return c
}

// popularity returns a random popularity order in which structured
// (even) and unstructured (odd) programs alternate, so the two jump
// styles split the traffic in equal halves and not only the corpus. A
// free permutation lets the seed decide which style the few hottest
// programs have, and their costs differ.
func popularity(rng *rand.Rand) []int {
	half := hotPrograms / 2
	structured, unstructured := rng.Perm(half), rng.Perm(half)
	rank := make([]int, hotPrograms)
	for k := 0; k < half; k++ {
		rank[2*k], rank[2*k+1] = 2*structured[k], 2*unstructured[k]+1
	}
	return rank
}

type hotStream struct {
	c    *hotCorpus
	rank []int
	rng  *rand.Rand
}

// stream returns client's request stream; label names its random
// stream.
func (c *hotCorpus) stream(seed int64, label string, client int) stream {
	rng := rand.New(rand.NewSource(mix(seed, label, client)))
	return &hotStream{c: c, rank: c.rank[client], rng: rng}
}

func (s *hotStream) next() request {
	pi := s.rank[sort.SearchFloat64s(s.c.cdf, s.rng.Float64())]
	p := s.c.progs[pi]
	ci := s.rng.Intn(len(p.crits))
	explain := s.rng.Float64() < hotExplain
	key := (pi*hotCrits + ci) * 2
	if explain {
		key++
	}
	return request{key: key, src: p.src, crit: p.crits[ci], explain: explain}
}

// warmup returns one request per corpus program: answering them fills
// the analysis cache, after which every hot-hit request is a hit.
func (c *hotCorpus) warmup() []request {
	out := make([]request, len(c.progs))
	for i, p := range c.progs {
		out[i] = request{key: -1, src: p.src, crit: p.crits[0]}
	}
	return out
}

// ---- cold-miss -----------------------------------------------------

// coldCorpus holds the generated shapes. Each request is a shape with
// its initial constants redrawn from the request number, so every
// source — and so every cache key — is new, while generation stays
// out of the timed window's way.
type coldCorpus struct {
	seed   int64
	shapes []program
}

func newColdCorpus(seed int64) *coldCorpus {
	return &coldCorpus{seed: seed, shapes: generateAll(seed, "cold", coldShapes, coldStmts)}
}

// initAssign matches a top-level constant initialisation of a data
// variable, the lines progen emits before a program's body.
var initAssign = regexp.MustCompile(`^(v[0-9]+) = -?[0-9]+;$`)

// variant returns the n-th distinct program: shape n mod shapes with
// its first data-variable initialisation set to a constant unique to
// n and the others redrawn.
func (c *coldCorpus) variant(n int) program {
	shape := c.shapes[n%len(c.shapes)]
	rng := rand.New(rand.NewSource(mix(c.seed, "cold-variant", n)))
	lines := strings.Split(shape.src, "\n")
	first := true
	for i, l := range lines {
		m := initAssign.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		if first {
			lines[i] = fmt.Sprintf("%s = %d;", m[1], uniqueConstLo+n)
			first = false
		} else {
			lines[i] = fmt.Sprintf("%s = %d;", m[1], rng.Intn(10))
		}
		if i > 8 {
			break // initialisations lead the program
		}
	}
	if first {
		panic("benchsliced: cold shape has no data-variable initialisation")
	}
	return program{src: strings.Join(lines, "\n"), crits: shape.crits}
}

// coldWarmupOffset keeps set-up programs disjoint from timed ones.
const coldWarmupOffset = 1 << 24

type coldStream struct {
	c      *coldCorpus
	rng    *rand.Rand
	client int
	offset int
	i      int
}

// coldRampOffset keeps ramp programs disjoint from timed and set-up
// ones.
const coldRampOffset = 2 << 24

// stream returns client's stream of variants offset+client,
// offset+client+clients, ...; offset 0 is the timed stream.
func (c *coldCorpus) stream(client, offset int) stream {
	return &coldStream{c: c, client: client, offset: offset,
		rng: rand.New(rand.NewSource(mix(c.seed, "cold-client", offset+client)))}
}

func (s *coldStream) next() request {
	n := s.offset + s.i*clients + s.client
	s.i++
	return s.c.request(n, s.rng.Intn(1<<30))
}

// request builds the request for variant n with criterion pick r.
func (c *coldCorpus) request(n, r int) request {
	p := c.variant(n)
	return request{key: n, src: p.src, crit: p.crits[r%len(p.crits)]}
}

func (c *coldCorpus) warmup() []request {
	out := make([]request, coldWarmup)
	for j := range out {
		out[j] = c.request(coldWarmupOffset+j, j)
		out[j].key = -1
	}
	return out
}

// ---- edit-session --------------------------------------------------

// edit is one one-line replacement and the tier it is meant to hit.
type edit struct {
	line int
	text string
	tier string
}

// session is one open document: the program it opens, the pool of
// edits drawn on it, and its criterion (the last write).
type session struct {
	base program
	crit core.Criterion
	pool []edit
	// undo[i] restores the line edit i replaced.
	undo []edit
}

var (
	assignLine = regexp.MustCompile(`^(\s*)(v[0-9]+) = (.+);$`)
	readLine   = regexp.MustCompile(`^(\s*)read\((v[0-9]+)\);$`)
)

// newSession generates document doc (structured for even doc,
// unstructured for odd) and its edit pool, which holds each tier in
// its intended share. Only unlabeled lines holding one data-variable
// assignment or read are edited, so every edit is a one-line splice,
// loop fuel is never touched and every version still terminates:
//   - patched: a new right-hand side for an assignment;
//   - partial: the same assignment to another variable;
//   - full: an assignment swapped for a read of the same variable,
//     or a read for an assignment.
func newSession(seed int64, doc int) *session {
	p := generate(seed, "edit", doc, editStmts)
	s := &session{base: p, crit: p.crits[0]}
	for _, c := range p.crits {
		if c.Line > s.crit.Line {
			s.crit = c
		}
	}
	lines := strings.Split(p.src, "\n")
	var assigns, reads []int
	for i, l := range lines {
		switch {
		case assignLine.MatchString(l):
			assigns = append(assigns, i)
		case readLine.MatchString(l):
			reads = append(reads, i)
		}
	}
	rng := rand.New(rand.NewSource(mix(seed, "edit-pool", doc)))
	nvars := countVars(p.src)
	for _, tier := range poolTiers() {
		var i int
		var text string
		if tier == "full" && len(reads) > 0 && rng.Intn(2) == 0 {
			i = reads[rng.Intn(len(reads))]
			m := readLine.FindStringSubmatch(lines[i])
			text = fmt.Sprintf("%s%s = %s;", m[1], m[2], randExpr(rng, nvars))
		} else {
			i = assigns[rng.Intn(len(assigns))]
			m := assignLine.FindStringSubmatch(lines[i])
			switch tier {
			case "patched":
				e := randExpr(rng, nvars)
				for e == m[3] {
					e = randExpr(rng, nvars)
				}
				text = fmt.Sprintf("%s%s = %s;", m[1], m[2], e)
			case "partial":
				v := fmt.Sprintf("v%d", rng.Intn(nvars))
				for v == m[2] {
					v = fmt.Sprintf("v%d", rng.Intn(nvars))
				}
				text = fmt.Sprintf("%s%s = %s;", m[1], v, m[3])
			default:
				text = fmt.Sprintf("%sread(%s);", m[1], m[2])
			}
		}
		s.pool = append(s.pool, edit{line: i + 1, text: text, tier: tier})
		s.undo = append(s.undo, edit{line: i + 1, text: lines[i], tier: tier})
	}
	return s
}

// poolTiers lists the tiers of one edit pool, each in its intended
// share of editPool (rounded, remainder to patched).
func poolTiers() []string {
	var out []string
	for _, t := range tierOrder[1:] {
		for n := int(tierShare[t]*editPool + 0.5); n > 0; n-- {
			out = append(out, t)
		}
	}
	for len(out) < editPool {
		out = append(out, tierOrder[0])
	}
	return out
}

// countVars reports how many data variables v0..v{n-1} a program uses.
func countVars(src string) int {
	n := 2
	for n < 64 && strings.Contains(src, fmt.Sprintf("v%d ", n)) {
		n++
	}
	return n
}

// randExpr draws a small expression over the data variables, in the
// shapes progen itself emits.
func randExpr(rng *rand.Rand, nvars int) string {
	v := func() string { return fmt.Sprintf("v%d", rng.Intn(nvars)) }
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s + %d", v(), rng.Intn(7)+1)
	case 1:
		return fmt.Sprintf("%s %s %s", v(), []string{"+", "-", "*"}[rng.Intn(3)], v())
	case 2:
		return fmt.Sprintf("f%d(%s)", rng.Intn(4), v())
	default:
		return fmt.Sprintf("%s %% %d", v(), rng.Intn(5)+2)
	}
}

// version returns the source of program version v: 0 is the opened
// program, i > 0 the program with pool edit i-1 applied.
func (s *session) version(v int) string {
	if v == 0 {
		return s.base.src
	}
	return applyEdit(s.base.src, s.pool[v-1])
}

// applyEdit replaces one line, as the daemon applies a one-line edit.
func applyEdit(src string, e edit) string {
	lines := strings.Split(src, "\n")
	lines[e.line-1] = e.text
	return strings.Join(lines, "\n")
}

// editStream is one client's edits: it visits the client's documents
// in turn, alternating on each an edit drawn from its pool with that
// edit's undo, so a document only ever holds one edit at a time.
type editStream struct {
	docs []int // global session indices this client owns
	all  []*session
	cur  map[int]int // session → current version
	rng  *rand.Rand
	i    int
}

// editStreamFor returns client's stream over sessions client,
// client+clients, client+2*clients, ...; label names its random
// stream.
func editStreamFor(seed int64, label string, all []*session, client int) stream {
	st := &editStream{all: all, cur: map[int]int{}, rng: rand.New(rand.NewSource(mix(seed, label, client)))}
	for d := client; d < len(all); d += clients {
		st.docs = append(st.docs, d)
	}
	return st
}

func (st *editStream) settled() bool {
	for _, v := range st.cur {
		if v != 0 {
			return false
		}
	}
	return true
}

func (st *editStream) next() request {
	d := st.docs[st.i%len(st.docs)]
	st.i++
	s := st.all[d]
	r := request{session: d, crit: s.crit, from: st.cur[d]}
	if r.from == 0 {
		i := st.rng.Intn(len(s.pool))
		r.edit, r.to = &s.pool[i], i+1
	} else {
		r.edit, r.to = &s.undo[r.from-1], 0
	}
	st.cur[d] = r.to
	r.key = d<<20 | r.from<<10 | r.to
	return r
}
