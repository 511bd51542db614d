package p4info

import (
	"strings"
	"testing"

	"switchv/models"
)

func TestLookups(t *testing.T) {
	info := New(models.Middleblock())
	ipv4, ok := info.TableByName("ipv4_table")
	if !ok {
		t.Fatal("missing ipv4_table")
	}
	got, ok := info.TableByID(ipv4.ID)
	if !ok || got != ipv4 {
		t.Errorf("TableByID(%#x) = %v, %v", ipv4.ID, got, ok)
	}
	if _, ok := info.TableByID(0xdeadbeef); ok {
		t.Error("resolved bogus table ID")
	}
	drop, ok := info.ActionByName("drop")
	if !ok {
		t.Fatal("missing drop")
	}
	if a, ok := info.ActionByID(drop.ID); !ok || a != drop {
		t.Errorf("ActionByID = %v, %v", a, ok)
	}
	if _, ok := info.ActionByID(1); ok {
		t.Error("resolved bogus action ID")
	}
	if k, ok := info.MatchFieldByID(ipv4, 2); !ok || k.Name != "ipv4_dst" {
		t.Errorf("MatchFieldByID(2) = %+v, %v", k, ok)
	}
	if _, ok := info.MatchFieldByID(ipv4, 0); ok {
		t.Error("match field id 0 resolved")
	}
	if _, ok := info.MatchFieldByID(ipv4, 3); ok {
		t.Error("match field id 3 resolved")
	}
	nh, _ := info.ActionByName("set_nexthop")
	if p, ok := info.ParamByID(nh, 1); !ok || p.Name != "router_interface_id" {
		t.Errorf("ParamByID(1) = %+v, %v", p, ok)
	}
	if _, ok := info.ParamByID(nh, 5); ok {
		t.Error("param id 5 resolved")
	}
}

func TestText(t *testing.T) {
	info := New(models.Middleblock())
	text := info.Text()
	for _, want := range []string{
		`name: "middleblock"`,
		`name: "ipv4_table"`,
		`match_type: LPM`,
		`implementation: ACTION_SELECTOR`,
		`refers_to: "vrf_table.vrf_id"`,
		`restriction:`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text missing %q", want)
		}
	}
	if info.Text() != text {
		t.Error("Text is not deterministic")
	}
}

func TestFingerprint(t *testing.T) {
	mb := New(models.Middleblock())
	wan := New(models.WAN())
	if mb.Fingerprint() == wan.Fingerprint() {
		t.Error("distinct models share a fingerprint")
	}
	if mb.Fingerprint() != New(models.Middleblock()).Fingerprint() {
		t.Error("fingerprint not stable")
	}
	if len(mb.Fingerprint()) != 64 {
		t.Errorf("fingerprint length = %d", len(mb.Fingerprint()))
	}
}

func TestDependencies(t *testing.T) {
	info := New(models.Middleblock())
	ipv4, _ := info.TableByName("ipv4_table")
	deps := info.Dependencies(ipv4)
	// key vrf_id -> vrf_table; actions set_nexthop_id -> nexthop_table,
	// set_wcmp_group_id -> wcmp_group_table.
	want := []string{"nexthop_table", "vrf_table", "wcmp_group_table"}
	if len(deps) != len(want) {
		t.Fatalf("deps = %v, want %v", deps, want)
	}
	for i := range want {
		if deps[i] != want[i] {
			t.Fatalf("deps = %v, want %v", deps, want)
		}
	}

	vrf, _ := info.TableByName("vrf_table")
	refs := info.ReferencedBy(vrf)
	if len(refs) == 0 {
		t.Fatal("vrf_table has no referrers")
	}
	foundTable, foundAction := false, false
	for _, r := range refs {
		if strings.HasPrefix(r, "table:") {
			foundTable = true
		}
		if strings.HasPrefix(r, "action:") {
			foundAction = true
		}
	}
	if !foundTable || !foundAction {
		t.Errorf("refs = %v, want both table: and action: entries", refs)
	}

	mirror, _ := info.TableByName("mirror_session_table")
	if deps := info.Dependencies(mirror); len(deps) != 0 {
		t.Errorf("mirror deps = %v", deps)
	}
}

// TestRanks: a table outranks every other table its entries may
// reference, and TopoOrder sorts by rank.
func TestRanks(t *testing.T) {
	for _, name := range models.Names() {
		info := New(models.MustLoad(name))
		rank := info.Ranks()
		if len(rank) != len(info.Tables()) {
			t.Fatalf("%s: %d ranks for %d tables", name, len(rank), len(info.Tables()))
		}
		for _, tbl := range info.Tables() {
			for _, dep := range info.Dependencies(tbl) {
				if dep != tbl.Name && rank[tbl.Name] <= rank[dep] {
					t.Errorf("%s: %s (rank %d) references %s (rank %d)", name, tbl.Name, rank[tbl.Name], dep, rank[dep])
				}
			}
		}
		topo := info.TopoOrder()
		for i := 1; i < len(topo); i++ {
			if rank[topo[i].Name] < rank[topo[i-1].Name] {
				t.Errorf("%s: TopoOrder puts %s before %s", name, topo[i-1].Name, topo[i].Name)
			}
		}
	}
	info := New(models.Middleblock())
	rank := info.Ranks()
	// ipv4 -> nexthop -> neighbor -> router_interface: the longest chain.
	if rank["router_interface_table"] != 0 || rank["neighbor_table"] != 1 ||
		rank["nexthop_table"] != 2 || rank["ipv4_table"] < 3 {
		t.Errorf("middleblock ranks = %v", rank)
	}
}
