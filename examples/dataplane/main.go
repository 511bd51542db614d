// Dataplane: a close look at p4-symbolic. Symbolically execute the WAN
// model with a production-scale entry set, inspect the trace guards,
// synthesize packets for chosen goals, and catch an injected hardware bug
// (the chip that forwards TTL<=1 instead of trapping it).
package main

import (
	"fmt"
	"log"

	"switchv/internal/bmv2"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/packet"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
	"switchv/internal/workload"
	"switchv/models"
)

func main() {
	prog := models.WAN()
	entries := workload.MustEntries(prog, 400, 11)
	store := pdpi.NewStore()
	for _, e := range entries {
		if err := store.Insert(e); err != nil {
			log.Fatal(err)
		}
	}

	// Symbolic execution: one pass, guarded commands (§5).
	ex, err := symbolic.New(prog, store, symbolic.Options{})
	if err != nil {
		log.Fatal(err)
	}
	goals := ex.Goals(symbolic.CoverEntries)
	fmt.Printf("symbolic execution of %q with %d entries: %d coverage goals\n",
		prog.Name, store.Len(), len(goals))

	// Solve a structural goal: hit the first installed IPv4 route.
	route := store.Entries("ipv4_table")[0]
	goalKey := symbolic.TraceKeyEntry("ipv4_table", route)
	pkt, ok, err := ex.SolveGoal(symbolic.Goal{Key: goalKey, Cond: ex.Trace(goalKey)})
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatalf("route %s is unreachable", route)
	}
	fmt.Printf("packet hitting %s:\n  %s\n", route, packet.NewPacket(pkt.Data, packet.LayerTypeEthernet))

	// Confirm against the reference simulator: the packet really hits the
	// entry (the soundness property the test suite checks exhaustively).
	sim, err := compile.New(prog, store)
	if err != nil {
		log.Fatal(err)
	}
	out, err := sim.Run(bmv2.Input{Port: pkt.Port, Packet: pkt.Data})
	if err != nil {
		log.Fatal(err)
	}
	for _, hit := range out.Trace {
		if hit.Table == "ipv4_table" {
			fmt.Printf("simulator: ipv4_table chose %q via %s\n", hit.EntryKey, hit.Action)
		}
	}

	// Custom goal over X and Y (§5 "Coverage Constraints"): a packet that
	// is punted with TTL 1 — the hardware-trap path.
	b := ex.Builder()
	ttlField, _ := prog.FieldByName("headers.ipv4.ttl")
	ttl1 := b.Eq(ex.Input(ttlField), b.ConstUint(1, 8))
	puntPkt, ok, err := ex.SolveGoal(symbolic.Goal{Key: "custom:ttl1-punt", Cond: b.And(ttl1, ex.PuntCond())})
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatal("no TTL-1 punt packet exists")
	}
	fmt.Printf("TTL-1 trap packet:\n  %s\n", packet.NewPacket(puntPkt.Data, packet.LayerTypeEthernet))

	// Run the full differential campaign against a switch whose chip lacks
	// the TTL trap — SwitchV flags the divergence.
	sw := switchsim.New("wan", switchsim.FaultTTL1NoTrap)
	defer sw.Close()
	h := switchv.New(p4info.New(prog), sw, sw)
	if err := h.PushPipeline(); err != nil {
		log.Fatal(err)
	}
	rep, err := h.RunDataPlane(entries, switchv.DataPlaneOptions{Coverage: symbolic.CoverBranches})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncampaign against the faulty chip: %d packets, %d incidents\n", rep.Packets, len(rep.Incidents))
	if len(rep.Incidents) > 0 {
		fmt.Println("first incident:", rep.Incidents[0])
	}
}
