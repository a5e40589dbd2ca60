package scenario

import (
	"fmt"
	"strings"
	"testing"

	"vmpower/internal/core"
	"vmpower/internal/fleet"
)

// TestSlotGrowthStaysExact pins the game size to the running VMs, not to
// the host's slots. Every hot-plug/remove cycle leaves a retired slot (a
// stopped dummy forever) on host 2, so 26 cycles grow its set from 2 to
// 28 slots — past the 16-VM exact budget and the 24-player mask limit —
// while at most three VMs ever run there. Every tick must stay exact on
// the collapsed path and healthy, the invariant auditor (with a deep
// re-solve every third tick) must report nothing, and per-tenant energy
// must be conserved to 1e-9 (runAudited).
func TestSlotGrowthStaysExact(t *testing.T) {
	const cycles, host = 26, 2
	f := lifecycleFleet(t, lifecycleConfig())
	var violations []string
	f.EnableAudit(core.AuditConfig{DeepEvery: 3}, func(h int, v core.AuditViolation) {
		violations = append(violations, fmt.Sprintf("host %d tick %d %s: %s", h, v.Tick, v.Kind, v.Detail))
	})
	var script []string
	for i := 1; i <= cycles; i++ {
		name := fmt.Sprintf("g%d", i)
		script = append(script,
			fmt.Sprintf("%s@%d:hotplug:%d:small:dave:gcc:%d", name, 2*i-1, host, i),
			fmt.Sprintf("%s@%d:remove", name, 2*i))
	}
	e := mustEngine(t, f, strings.Join(script, ","), 1)
	ticks, _ := runAudited(t, e, f, 2*cycles+2, nil)

	slots := 2 // s5, s6
	passed := map[int]bool{}
	for _, tk := range ticks {
		for _, ev := range tk.Events {
			if ev.Type == fleet.EventHotplug {
				slots++
			}
		}
		var hs *fleet.HostStatus
		for i := range tk.Hosts {
			if tk.Hosts[i].Host == host {
				hs = &tk.Hosts[i]
			}
		}
		if hs == nil {
			t.Fatalf("tick %d: host %d missing from the tick", tk.Tick, host)
		}
		if hs.State != fleet.HostHealthy || hs.Tier != core.TierSymExact {
			t.Fatalf("tick %d (%d slots): host %d is %s on tier %q (%s), want healthy on %q",
				tk.Tick, slots, host, hs.State, hs.Tier, hs.Reason, core.TierSymExact)
		}
		for _, bound := range []int{17, 25} {
			if slots >= bound {
				passed[bound] = true
			}
		}
	}
	if slots != 2+cycles || !passed[17] || !passed[25] {
		t.Fatalf("host %d reached %d slots (past 17: %v, past 25: %v), want %d",
			host, slots, passed[17], passed[25], 2+cycles)
	}
	if len(violations) > 0 {
		t.Fatalf("%d audit violations:\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
}
