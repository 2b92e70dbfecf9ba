package sdnsim

import "testing"

// The push benchmarks drive the real wire path against loopback agents on
// ATT with controllers {0, 2, 4} failed: each op is one full push of every
// switch (dial, ping, role claim, flow-mods, barrier).

func BenchmarkPushRecoveryATT(b *testing.B) {
	fx := newPushFixture(b, []int{0, 2, 4})
	addrs := AgentAddrs(fx.agents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := PushRecoveryResilient(addrs, fx.inst.Flows, fx.inst, fx.sol, PushOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Demoted) != 0 {
			b.Fatalf("demoted %v", rep.Demoted)
		}
	}
}

func BenchmarkRestoreIdealATT(b *testing.B) {
	fx := newPushFixture(b, []int{0, 2, 4})
	addrs := AgentAddrs(fx.agents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := RestoreIdeal(addrs, fx.inst.Flows, fx.inst.Switches, PushOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Failed) != 0 {
			b.Fatalf("failed %v", rep.Failed)
		}
	}
}
