package sdnsim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// installEntryOracle is the reference InstallEntry: a linear scan for the
// (FlowID, Priority) key, else append and re-sort the whole table.
func installEntryOracle(s *Switch, e FlowEntry) {
	for i := range s.entries {
		if s.entries[i].FlowID == e.FlowID && s.entries[i].Priority == e.Priority {
			s.entries[i] = e
			return
		}
	}
	s.entries = append(s.entries, e)
	sort.SliceStable(s.entries, func(a, b int) bool {
		if s.entries[a].Priority != s.entries[b].Priority {
			return s.entries[a].Priority > s.entries[b].Priority
		}
		return s.entries[a].FlowID < s.entries[b].FlowID
	})
}

func TestSwitchInstallEntryMatchesOracle(t *testing.T) {
	const flows = 24
	prios := []int{0, 100, 100, 100, 200, 65535}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewSwitch(1, nil), NewSwitch(1, nil)
		for op := 0; op < 400; op++ {
			id := flow.ID(rng.Intn(flows))
			switch r := rng.Intn(100); {
			case r < 70:
				e := FlowEntry{FlowID: id, Priority: prios[rng.Intn(len(prios))], NextHop: topo.NodeID(rng.Intn(8) + 2)}
				got.InstallEntry(e)
				installEntryOracle(want, e)
			case r < 98:
				if g, w := got.RemoveEntry(id), want.RemoveEntry(id); g != w {
					t.Fatalf("seed %d op %d: RemoveEntry(%d) = %v, oracle %v", seed, op, id, g, w)
				}
			default:
				got.FlushEntries()
				want.FlushEntries()
			}
			if len(got.entries) != len(want.entries) || (len(got.entries) > 0 && !reflect.DeepEqual(got.entries, want.entries)) {
				t.Fatalf("seed %d op %d: table %v, oracle %v", seed, op, got.entries, want.entries)
			}
			for f := flow.ID(0); f < flows; f++ {
				ge, gok := got.Entry(f)
				we, wok := want.Entry(f)
				if ge != we || gok != wok {
					t.Fatalf("seed %d op %d: Entry(%d) = %+v %v, oracle %+v %v", seed, op, f, ge, gok, we, wok)
				}
				gnh, gv := got.Forward(f, 0)
				wnh, wv := want.Forward(f, 0)
				if gnh != wnh || gv != wv {
					t.Fatalf("seed %d op %d: Forward(%d) = %d %v, oracle %d %v", seed, op, f, gnh, gv, wnh, wv)
				}
			}
		}
	}
}
