package coverage

import (
	"math/rand"

	"switchv/internal/p4/ir"
)

// Guide turns the coverage map into a scheduler: instead of uniform
// random picks, the fuzzer draws tables, actions and mutation classes
// with probability proportional to their energy, which decays as a
// region accumulates coverage (the power-schedule idea FP4 applies to
// P4 switch fuzzing). Draws read the rng deterministically and iterate
// candidates in caller order, never in map order, so a campaign with the
// same seed and the same coverage state produces the same schedule.
type Guide struct {
	m *Map
}

// NewGuide returns a guide over a map.
func NewGuide(m *Map) *Guide { return &Guide{m: m} }

// energy maps a coverage count to a scheduling weight: an unexercised
// region weighs 1, and weight decays quadratically as coverage grows, so
// cold regions dominate the draw without ever starving hot ones. The
// decay must be steep — with a shallow schedule a region covered once
// keeps half the weight of an uncovered one and the guide degenerates
// toward uniform.
func energy(count int64) float64 {
	n := 1 + float64(count)
	return 1 / (n * n)
}

// weighted draws index i with probability w[i]/sum(w) using a single rng
// value. Zero/negative weights never win unless all weights are.
func weighted(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		return rng.Intn(len(w))
	}
	r := rng.Float64() * total
	for i, x := range w {
		if x <= 0 {
			continue
		}
		r -= x
		if r < 0 {
			return i
		}
	}
	return len(w) - 1
}

// PickTable draws a table from candidates, weighted by how little the
// campaign has accepted into each: tables with no accepted update yet
// carry maximal energy.
func (g *Guide) PickTable(rng *rand.Rand, candidates []*ir.Table) *ir.Table {
	if len(candidates) == 1 {
		return candidates[0]
	}
	w := make([]float64, len(candidates))
	for i, t := range candidates {
		w[i] = energy(g.m.Count(KeyTableAccept(t.Name)))
	}
	return candidates[weighted(rng, w)]
}

// PickAction draws one of a table's actions, weighted toward actions the
// switch has accepted fewest entries for.
func (g *Guide) PickAction(rng *rand.Rand, t *ir.Table) *ir.Action {
	if len(t.Actions) == 1 {
		return t.Actions[0]
	}
	w := make([]float64, len(t.Actions))
	for i, a := range t.Actions {
		w[i] = energy(g.m.Count(KeyActionSelect(t.Name, a.Name)))
	}
	return t.Actions[weighted(rng, w)]
}

// PickMutationOrder returns the mutation classes (by index into names)
// in the order the fuzzer should attempt them: a weighted draw without
// replacement, so rarely-applied classes come up first but inapplicable
// ones still have fallbacks. It consumes len(names)-1 rng values.
func (g *Guide) PickMutationOrder(rng *rand.Rand, names []string) []int {
	w := make([]float64, len(names))
	for i, name := range names {
		w[i] = energy(g.m.Count(KeyMutation(name)))
	}
	order := make([]int, 0, len(names))
	remaining := make([]int, len(names))
	for i := range names {
		remaining[i] = i
	}
	for len(remaining) > 1 {
		wr := make([]float64, len(remaining))
		for j, idx := range remaining {
			wr[j] = w[idx]
		}
		j := weighted(rng, wr)
		order = append(order, remaining[j])
		remaining = append(remaining[:j], remaining[j+1:]...)
	}
	return append(order, remaining[0])
}
