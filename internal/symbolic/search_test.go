package symbolic

import (
	"math/rand/v2"
	"strings"
	"testing"

	"switchv/internal/bmv2"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
)

// searchExecutions is the concrete search's budget per generation: the
// number of inputs run through the reference interpreter.
const searchExecutions = 10000

// searchUnreachable checks a generation's unreachable verdicts by
// concrete search: no input may reach a table goal that the generator
// called unreachable. The corpus starts as the generation's packets; each
// step copies one and mutates one to four bytes (a bit flip, a random
// byte, or the byte at the same offset of another corpus packet), and one
// step in 16 also moves it to another ingress port inside the
// generator's range. Each input runs through the reference interpreter's
// behavior set, which shares no lookup or parser code with the
// generator, and joins the corpus when it reaches a trace key no earlier
// input did. The seed and budget are fixed, so the search is
// deterministic.
func searchUnreachable(t *testing.T, prog *ir.Program, store *pdpi.Store, universe []string, pkts []TestPacket) {
	t.Helper()
	unreachable := map[string]bool{}
	for _, k := range universe {
		if strings.HasPrefix(k, "table:") {
			unreachable[k] = true
		}
	}
	type input struct {
		port uint16
		data []byte
	}
	var corpus []input
	for _, p := range pkts {
		delete(unreachable, p.GoalKey)
		corpus = append(corpus, input{p.Port, p.Data})
	}
	if len(corpus) == 0 {
		t.Fatal("search: no packets to start from")
	}
	sim, err := bmv2.New(prog, store)
	if err != nil {
		t.Fatal(err)
	}
	const maxPort = 32 // the generator's default Options.MaxPort
	seen := map[string]bool{}
	start, ran := len(corpus), 0
	rng := rand.New(rand.NewPCG(42, 9))
	for range searchExecutions {
		in := corpus[rng.IntN(len(corpus))]
		data := append([]byte(nil), in.data...)
		for range 1 + rng.IntN(4) {
			i := rng.IntN(len(data))
			switch rng.IntN(3) {
			case 0:
				data[i] ^= 1 << rng.IntN(8)
			case 1:
				data[i] = byte(rng.IntN(256))
			default:
				if other := corpus[rng.IntN(len(corpus))].data; i < len(other) {
					data[i] = other[i]
				}
			}
		}
		port := in.port
		if rng.IntN(16) == 0 {
			port = uint16(rng.IntN(maxPort))
		}
		sim.Reset()
		outs, err := sim.BehaviorSet(bmv2.Input{Port: port, Packet: data}, 4)
		if err != nil {
			continue // not a parseable frame
		}
		ran++
		fresh := false
		for _, out := range outs {
			for _, h := range out.Trace {
				k := hitKey(h)
				if unreachable[k] {
					t.Errorf("goal %s was called unreachable, but port %d packet %x reaches it", k, port, data)
					delete(unreachable, k)
				}
				if !seen[k] {
					seen[k], fresh = true, true
				}
			}
		}
		if fresh {
			corpus = append(corpus, input{port, data})
		}
	}
	t.Logf("search: %d of %d inputs parsed, corpus %d -> %d, %d unreachable table goals",
		ran, searchExecutions, start, len(corpus), len(unreachable))
}
