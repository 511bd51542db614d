package switchv

import (
	"sync/atomic"

	"switchv/internal/bmv2"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
)

// engineConstructions counts newEngine calls process-wide. The
// data-plane compare loop is asserted (by regression test) to construct
// one engine per round, not one per packet.
var engineConstructions atomic.Int64

// EngineConstructions returns the process-wide engine construction
// count. Test hook.
func EngineConstructions() int64 { return engineConstructions.Load() }

// newEngine builds the reference simulator over the program and store:
// the compiled pipeline, which the differential tests pin to the
// interpreter's outcomes. Engines are single-goroutine; RunDataPlane
// builds one per round and resets it between packets.
func newEngine(prog *ir.Program, store *pdpi.Store) (bmv2.Simulator, error) {
	engineConstructions.Add(1)
	return compile.New(prog, store)
}
