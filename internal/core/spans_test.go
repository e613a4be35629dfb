package core

import (
	"context"
	"fmt"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/progen"
)

// spanSinks is one of each span sink: a registry (duration
// histograms), a flight recorder behind a tracer, and the tracer's
// span log.
type spanSinks struct {
	reg *obs.Registry
	fr  *obs.FlightRecorder
	sl  *obs.SpanLog
	tr  *obs.Tracer
}

func newSpanSinks() *spanSinks {
	s := &spanSinks{reg: obs.NewRegistry(), fr: obs.NewFlightRecorder(1 << 14), sl: &obs.SpanLog{}}
	s.tr = obs.NewTracer(s.fr).ForRequest(1).WithSpans(s.sl)
	return s
}

// requireSameSpans asserts all three sinks saw the same multiset of
// span names, and that it includes every wanted name.
func (s *spanSinks) requireSameSpans(t *testing.T, ctxt string, want ...string) {
	t.Helper()
	hist := map[string]int{}
	for _, h := range s.reg.Snapshot().Histograms {
		if h.Unit == obs.UnitNanoseconds {
			hist[h.Name] = int(h.Count)
		}
	}
	if s.fr.Dropped() != 0 {
		t.Fatalf("%s: flight recorder dropped %d events", ctxt, s.fr.Dropped())
	}
	trace := map[string]int{}
	for _, e := range s.fr.Events() {
		if e.Kind == obs.KindSpan {
			trace[e.Name]++
		}
	}
	log := map[string]int{}
	for _, p := range s.sl.Spans() {
		log[p.Name]++
	}
	h, tr, l := fmt.Sprint(hist), fmt.Sprint(trace), fmt.Sprint(log)
	if h != tr || h != l {
		t.Fatalf("%s: span sinks disagree:\nhistograms %s\ntrace      %s\nspan log   %s", ctxt, h, tr, l)
	}
	for _, name := range want {
		if hist[name] == 0 {
			t.Errorf("%s: no %s span in %s", ctxt, name, h)
		}
	}
}

// TestSpansReachEverySink: every span an entry point or a lazily built
// phase records reaches the duration histograms, the flight recorder
// and the span log alike.
func TestSpansReachEverySink(t *testing.T) {
	t.Run("analyze", func(t *testing.T) {
		s := newSpanSinks()
		if _, err := AnalyzeObservedContext(context.Background(), lang.MustParse(fig8src), s.reg, s.tr); err != nil {
			t.Fatal(err)
		}
		s.requireSameSpans(t, "analyze", "phase.analyze", "phase.analyze.cfg", "phase.analyze.worklists")
	})

	for _, edit := range []struct {
		tier, src string
	}{
		{"patched", editSrcLine(t, fig8src, 6, "sum = sum + f1(x) + 1;")},
		{"partial", editSrcLine(t, fig8src, 2, "others = 0;")},
		{"full", fig8src + "write(sum);\n"},
	} {
		t.Run("reanalyze-"+edit.tier, func(t *testing.T) {
			prev := analyzeSrc(t, fig8src)
			s := newSpanSinks()
			_, stats, err := ReanalyzeProgram(context.Background(), prev, lang.MustParse(edit.src), s.reg, s.tr)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Outcome != edit.tier {
				t.Fatalf("outcome %q (fallback %q), want %q", stats.Outcome, stats.Fallback, edit.tier)
			}
			want := []string{"phase.reanalyze"}
			if edit.tier == "full" {
				want = append(want, "phase.analyze")
			}
			s.requireSameSpans(t, edit.tier, want...)
		})
	}

	t.Run("program-set", func(t *testing.T) {
		s := newSpanSinks()
		p := progen.MultiProc(progen.Config{Seed: 1, Stmts: 30, Procs: 2})
		ps, err := AnalyzeProgramSet(context.Background(), p, s.reg, s.tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.EnsureSummaries(); err != nil {
			t.Fatal(err)
		}
		s.requireSameSpans(t, "program set", "phase.analyze.sdg", "phase.sdg.summaries", "phase.analyze")
	})

	t.Run("slice-all", func(t *testing.T) {
		a := analyzeSrc(t, fig8src)
		s := newSpanSinks()
		v := a.Rebind(context.Background(), s.reg, s.tr)
		if _, err := v.SliceAll([]Criterion{{Var: "sum", Line: 14}, {Var: "positives", Line: 15}}); err != nil {
			t.Fatal(err)
		}
		s.requireSameSpans(t, "SliceAll", "phase.analyze.condense")
	})
}
