package fleetd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"vmpower/internal/obs"
)

// The high-traffic serving path: every Step publishes an immutable,
// pre-encoded snapshot of the read-mostly endpoints behind one atomic
// pointer swap, so handlers write cached bytes — zero encodes and zero
// marshal allocations per request. The bytes come from the same
// json.Encoder the per-request path uses, so cached responses are
// bit-identical to a fresh encode (pinned by TestCachedBytesIdentical).
// On top of the snapshot sits /api/v1/allocation?since=<tick>: a delta
// read carrying only the hosts, VMs and tenants that changed after the
// client's tick, so a thousand scrapers cost O(changed), not O(fleet).

// servedSnapshot is one tick's pre-encoded HTTP surface. Immutable after
// publication; a nil body means that endpoint could not encode this tick
// (or, for scenario, that no scenario is configured) and the handler
// falls back to the per-request path.
type servedSnapshot struct {
	tick       int
	status     []byte
	allocation []byte
	energy     []byte
	scenario   []byte
}

// deltaWindow bounds the per-tick change log behind
// /api/v1/allocation?since=. A client further behind than this many
// ticks gets a full resync (Full=true), the journal's "dropped"
// analogue.
const deltaWindow = 512

// tickDelta records what changed on one tick relative to the previous
// one: host entries whose wire form differs, VMs/tenants whose watts
// changed, and VMs/tenants/hosts that disappeared from the roster.
type tickDelta struct {
	tick           int
	hosts          []int
	removedHosts   []int
	vms            []string
	removedVMs     []string
	tenants        []string
	removedTenants []string
}

// TickDeltaJSON is the wire form of GET /api/v1/allocation?since=T: the
// scalar header of the latest tick plus only the per-VM / per-tenant /
// per-host entries that changed after tick T. A client holding the full
// allocation of tick T reconstructs the full allocation of Tick exactly
// (pinned by TestFleetDeltaComposes) by overwriting the scalars,
// upserting PerVM/PerTenant, deleting Removed*, replacing Hosts entries
// by host id (dropping RemovedHosts), and replacing Unaccounted, Events
// and Migrations wholesale; it then passes Tick as the next ?since=.
// Full marks a resync — the requested tick predates the retained window
// (or a daemon restart) — and carries the complete roster.
type TickDeltaJSON struct {
	Since              int                `json:"since"`
	Tick               int                `json:"tick"`
	Full               bool               `json:"full,omitempty"`
	MeasuredWatts      float64            `json:"measured_watts"`
	DynamicWatts       float64            `json:"dynamic_watts"`
	Degraded           bool               `json:"degraded,omitempty"`
	DegradedHosts      int                `json:"degraded_hosts,omitempty"`
	QuarantinedHosts   int                `json:"quarantined_hosts,omitempty"`
	DrainingHosts      int                `json:"draining_hosts,omitempty"`
	DrainedHosts       int                `json:"drained_hosts,omitempty"`
	IdleUnmeteredHosts int                `json:"idle_unmetered_hosts,omitempty"`
	PerVM              map[string]float64 `json:"per_vm_watts"`
	RemovedVMs         []string           `json:"removed_vms,omitempty"`
	PerTenant          map[string]float64 `json:"per_tenant_watts"`
	RemovedTenants     []string           `json:"removed_tenants,omitempty"`
	Hosts              []HostJSON         `json:"hosts"`
	RemovedHosts       []int              `json:"removed_hosts,omitempty"`
	Unaccounted        []string           `json:"unaccounted,omitempty"`
	Events             []EventJSON        `json:"events,omitempty"`
	Migrations         []MigrationJSON    `json:"migrations,omitempty"`
}

// encodeJSON renders v exactly as writeJSON's per-request encoder does
// (same encoder, same trailing newline), into a fresh buffer the cached
// snapshot owns forever.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jsonCType is the Content-Type header value shared by every cached
// response. Assigning the shared slice directly (rather than
// Header().Set) keeps the cached GET path allocation-free.
var jsonCType = []string{"application/json"}

// writeCached serves a pre-encoded body. Zero allocations on the happy
// path; a failed write (client gone mid-response) is counted like an
// encode failure.
func (s *Server) writeCached(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonCType
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.noteEncodeError(err)
	}
}

// writeJSON is the per-request fallback (pre-first-tick, error bodies,
// delta responses): encode straight onto the wire. Encode errors — a
// value that cannot marshal, or a client that hung up mid-body — used to
// be silently discarded; they are now counted in
// vmpower_http_encode_errors_total and logged at debug.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.noteEncodeError(err)
	}
}

func (s *Server) noteEncodeError(err error) {
	o := s.telemetry.Load()
	if o == nil {
		return
	}
	o.encodeErrs.Inc()
	if o.log.Enabled(obs.LevelDebug) {
		o.log.Debug("response encode failed", "err", err)
	}
}

// statusLocked builds the status wire form from tick-published state
// only — no fleet accessors, so it is safe on handler goroutines while
// a scenario mutates the roster. Callers hold s.mu (any mode).
func (s *Server) statusLocked() StatusJSON {
	st := StatusJSON{
		Hosts:         s.hosts,
		EmptyHosts:    s.emptyHosts,
		VMs:           s.vms,
		Tenants:       s.tenants,
		Ticks:         s.ticks,
		DegradedTicks: s.degradedTicks,
		Quarantines:   s.quarantines,
		Readmits:      s.readmits,
	}
	if s.latest != nil {
		st.Degraded = s.latest.Degraded
		st.HostStates = s.latest.Hosts
	}
	return st
}

// energyLocked builds the energy wire form. Callers hold s.mu (any
// mode).
func (s *Server) energyLocked() EnergyJSON {
	energy := s.energy
	if energy.PerTenantWh == nil {
		energy.PerTenantWh = map[string]float64{}
	}
	return energy
}

// hostEqual reports whether two host wire entries are identical.
func hostEqual(a, b *HostJSON) bool {
	if a.Host != b.Host || a.State != b.State || a.Reason != b.Reason ||
		a.MeterLost != b.MeterLost || a.QuarantinedTicks != b.QuarantinedTicks ||
		a.HoldoverAgeTicks != b.HoldoverAgeTicks || a.RejectedSamples != b.RejectedSamples ||
		a.MeasuredWatts != b.MeasuredWatts || a.DynamicWatts != b.DynamicWatts ||
		a.Tier != b.Tier || len(a.VMs) != len(b.VMs) {
		return false
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			return false
		}
	}
	return true
}

// diffTick computes what changed between two consecutive wire ticks.
// A nil prev (first tick) marks everything changed.
func diffTick(prev, cur *TickJSON) tickDelta {
	d := tickDelta{tick: cur.Tick}
	var prevHosts map[int]*HostJSON
	if prev != nil {
		prevHosts = make(map[int]*HostJSON, len(prev.Hosts))
		for i := range prev.Hosts {
			prevHosts[prev.Hosts[i].Host] = &prev.Hosts[i]
		}
	}
	cur2 := make(map[int]bool, len(cur.Hosts))
	for i := range cur.Hosts {
		h := &cur.Hosts[i]
		cur2[h.Host] = true
		if p, ok := prevHosts[h.Host]; !ok || !hostEqual(p, h) {
			d.hosts = append(d.hosts, h.Host)
		}
	}
	for id := range prevHosts {
		if !cur2[id] {
			d.removedHosts = append(d.removedHosts, id)
		}
	}
	for name, w := range cur.PerVM {
		if prev == nil {
			d.vms = append(d.vms, name)
			continue
		}
		if pw, ok := prev.PerVM[name]; !ok || pw != w {
			d.vms = append(d.vms, name)
		}
	}
	for name, w := range cur.PerTenant {
		if prev == nil {
			d.tenants = append(d.tenants, name)
			continue
		}
		if pw, ok := prev.PerTenant[name]; !ok || pw != w {
			d.tenants = append(d.tenants, name)
		}
	}
	if prev != nil {
		for name := range prev.PerVM {
			if _, ok := cur.PerVM[name]; !ok {
				d.removedVMs = append(d.removedVMs, name)
			}
		}
		for name := range prev.PerTenant {
			if _, ok := cur.PerTenant[name]; !ok {
				d.removedTenants = append(d.removedTenants, name)
			}
		}
	}
	return d
}

// publishLocked pre-encodes the tick's read-mostly endpoints, swaps the
// served snapshot, and appends the tick's change set to the bounded
// delta log. Called from Step with s.mu held, after the tick's state
// (latest, energy, roster counts, scenario) has been assigned; the
// previous snapshot stays valid for requests already holding its
// pointer.
func (s *Server) publishLocked(wire *TickJSON) {
	s.deltaLog = obs.AppendWindow(s.deltaLog, diffTick(s.prevWire, wire), deltaWindow)
	s.prevWire = wire

	snap := &servedSnapshot{tick: wire.Tick}
	// A body that cannot encode leaves its slot nil: the handler falls
	// back to the per-request path, which counts the failure per request
	// instead of silently serving stale bytes.
	snap.allocation, _ = encodeJSON(wire)
	snap.status, _ = encodeJSON(s.statusLocked())
	snap.energy, _ = encodeJSON(s.energyLocked())
	if s.scenario != nil {
		snap.scenario, _ = encodeJSON(s.scenario)
	}
	s.served.Store(snap)
}

// handleAllocationDelta serves GET /api/v1/allocation?since=T. The
// response is O(changed) — per-VM/per-tenant entries and host rows only
// for entities whose wire value changed after T — not O(fleet).
func (s *Server) handleAllocationDelta(w http.ResponseWriter, raw string) {
	since, err := strconv.Atoi(raw)
	if err != nil || since < 0 {
		s.writeJSON(w, http.StatusBadRequest, errorJSON{Error: "since must be a non-negative integer"})
		return
	}
	s.mu.RLock()
	latest := s.latest
	if latest == nil {
		s.mu.RUnlock()
		s.writeJSON(w, http.StatusNotFound, errorJSON{Error: "no tick yet"})
		return
	}
	out := TickDeltaJSON{
		Since:              since,
		Tick:               latest.Tick,
		MeasuredWatts:      latest.MeasuredWatts,
		DynamicWatts:       latest.DynamicWatts,
		Degraded:           latest.Degraded,
		DegradedHosts:      latest.DegradedHosts,
		QuarantinedHosts:   latest.QuarantinedHosts,
		DrainingHosts:      latest.DrainingHosts,
		DrainedHosts:       latest.DrainedHosts,
		IdleUnmeteredHosts: latest.IdleUnmeteredHosts,
		PerVM:              map[string]float64{},
		PerTenant:          map[string]float64{},
		Hosts:              []HostJSON{},
		Unaccounted:        latest.Unaccounted,
		Events:             latest.Events,
		Migrations:         latest.Migrations,
	}
	fullResync := func() {
		out.Full = true
		for name, w := range latest.PerVM {
			out.PerVM[name] = w
		}
		for name, w := range latest.PerTenant {
			out.PerTenant[name] = w
		}
		out.Hosts = latest.Hosts
	}
	switch {
	case since >= latest.Tick:
		// Current — empty delta. A client ahead of the daemon (since from
		// a previous incarnation) gets a full resync instead: its baseline
		// tick numbering means nothing here.
		if since > latest.Tick {
			fullResync()
		}
	case len(s.deltaLog) > 0 && s.deltaLog[0].tick <= since+1:
		changedHosts := map[int]bool{}
		removedHosts := map[int]bool{}
		changedVMs := map[string]bool{}
		removedVMs := map[string]bool{}
		changedTenants := map[string]bool{}
		removedTenants := map[string]bool{}
		for i := range s.deltaLog {
			d := &s.deltaLog[i]
			if d.tick <= since {
				continue
			}
			for _, id := range d.hosts {
				changedHosts[id] = true
			}
			for _, id := range d.removedHosts {
				removedHosts[id] = true
			}
			for _, n := range d.vms {
				changedVMs[n] = true
			}
			for _, n := range d.removedVMs {
				removedVMs[n] = true
			}
			for _, n := range d.tenants {
				changedTenants[n] = true
			}
			for _, n := range d.removedTenants {
				removedTenants[n] = true
			}
		}
		// A name both removed and later re-added resolves by presence in
		// the latest tick: present → changed entry, absent → removed.
		for name := range changedVMs {
			if w, ok := latest.PerVM[name]; ok {
				out.PerVM[name] = w
			}
		}
		for name := range removedVMs {
			if _, ok := latest.PerVM[name]; !ok {
				out.RemovedVMs = append(out.RemovedVMs, name)
			}
		}
		for name := range changedTenants {
			if w, ok := latest.PerTenant[name]; ok {
				out.PerTenant[name] = w
			}
		}
		for name := range removedTenants {
			if _, ok := latest.PerTenant[name]; !ok {
				out.RemovedTenants = append(out.RemovedTenants, name)
			}
		}
		inLatest := map[int]bool{}
		for i := range latest.Hosts {
			h := &latest.Hosts[i]
			inLatest[h.Host] = true
			if changedHosts[h.Host] {
				out.Hosts = append(out.Hosts, *h)
			}
		}
		for id := range removedHosts {
			if !inLatest[id] {
				out.RemovedHosts = append(out.RemovedHosts, id)
			}
		}
		sort.Strings(out.RemovedVMs)
		sort.Strings(out.RemovedTenants)
		sort.Ints(out.RemovedHosts)
	default:
		// since predates the retained window: full resync.
		fullResync()
	}
	s.mu.RUnlock()
	s.writeJSON(w, http.StatusOK, out)
}
