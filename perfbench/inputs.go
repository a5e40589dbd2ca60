package main

import (
	"fmt"
	"math/rand"
	"strings"

	"vmpower/internal/fleet"
	"vmpower/internal/vm"
)

// Inputs are generated from the workload seed alone (plus, for the fleet,
// the tick count the run will make); the daemons receive only what is
// generated here: a roster, one trace per VM or per symmetry class, and a
// scenario string.

// specSuite is the SPEC CPU2006 trace catalog the paper runs (Table V).
var specSuite = []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}

// hostVM is one VM of a single-host roster. VMs with the same Class
// share one trace generator, so their states stay bit-equal.
type hostVM struct {
	Name     string
	Type     vm.TypeID
	Class    int
	Workload string
	Seed     int64
}

// hostInput is a single-host workload's input.
type hostInput struct {
	Profile   string // machine profile: "xeon16" or "dense256"
	MeterSeed int64
	VMs       []hostVM
}

// host16Input: one xeon16 host, 10×VM1 + 4×VM2 + 2×VM3 (26 of 32
// threads), every VM on its own SPEC trace with its own seed.
func host16Input(seed int64) hostInput {
	rng := rand.New(rand.NewSource(seed))
	var types []vm.TypeID
	for t, count := range []int{10, 4, 2} {
		for i := 0; i < count; i++ {
			types = append(types, vm.TypeID(t))
		}
	}
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	in := hostInput{Profile: "xeon16", MeterSeed: rng.Int63()}
	for i, t := range types {
		in.VMs = append(in.VMs, hostVM{
			Name:     fmt.Sprintf("vm%02d", i),
			Type:     t,
			Class:    i,
			Workload: specSuite[rng.Intn(len(specSuite))],
			Seed:     rng.Int63(),
		})
	}
	return in
}

// wide200Classes are the symmetry class sizes of wide200-sym:
// ∏(c_j+1) = 191·4·4·3·2·2 ≈ 36.7k collapsed vectors per full solve.
var wide200Classes = []int{190, 3, 3, 2, 1, 1}

// wide200Input: one dense256 host, 200 VMs in six symmetry classes whose
// types alternate VM1/VM2; members of a class share one SPEC generator.
// Class membership is scattered over the VM IDs by the seed.
func wide200Input(seed int64) hostInput {
	rng := rand.New(rand.NewSource(seed))
	in := hostInput{Profile: "dense256", MeterSeed: rng.Int63()}
	type class struct {
		workload string
		seed     int64
	}
	classes := make([]class, len(wide200Classes))
	for j := range classes {
		classes[j] = class{specSuite[rng.Intn(len(specSuite))], rng.Int63()}
	}
	var member []int
	for j, c := range wide200Classes {
		for i := 0; i < c; i++ {
			member = append(member, j)
		}
	}
	rng.Shuffle(len(member), func(a, b int) { member[a], member[b] = member[b], member[a] })
	for i, j := range member {
		in.VMs = append(in.VMs, hostVM{
			Name:     fmt.Sprintf("vm%03d", i),
			Type:     vm.TypeID(j % 2),
			Class:    j,
			Workload: classes[j].workload,
			Seed:     classes[j].seed,
		})
	}
	return in
}

// fleetInput is fleet8-churn-scrape's input.
type fleetInput struct {
	Hosts        int
	Seed         int64
	VMs          []fleet.VMRequest
	Scenario     string
	ScenarioSeed int64
}

var fleetTenants = []string{"acme", "globex", "initech", "umbrella"}

const (
	fleetHosts     = 8
	fleetCopyTicks = 3
	// fleetCycles is how often the lifecycle timeline repeats over a run.
	fleetCycles = 4
	// bigType is VM4, the type of the VMs that migrate and hot-plug.
	bigType vm.TypeID = 3
	// fleetMinTicks keeps a cycle long enough that no two events that
	// move capacity overlap a copy window.
	fleetMinTicks = 200
)

// fleetInput builds eight xeon16 hosts with 48 VMs of 4 tenants and a
// lifecycle timeline spanning ticks ticks. First-fit-decreasing placement
// fills hosts 0-3 with four VM4 each and hosts 4-7 with eight VM3 each;
// tick 1 removes one spare VM per host, which leaves every host vCPU slack
// for migrations, hot-plugs and the drain. Each of fleetCycles cycles then
// power-cycles three VMs, live-migrates one VM4 (3-tick copy window), and
// hot-plugs one VM4 that it removes later; the second cycle drains and
// undrains host 0; an autoscale group of four VMs scales between 1 and 4
// from tick 2 on. The number of capacity-moving events is fixed, not
// proportional to ticks: every migration and hot-plug leaves a retired
// slot on its host for good, so a host's game only grows.
func newFleetInput(seed int64, ticks int) (fleetInput, error) {
	if ticks < fleetMinTicks {
		return fleetInput{}, fmt.Errorf("fleet timeline needs at least %d ticks, got %d", fleetMinTicks, ticks)
	}
	rng := rand.New(rand.NewSource(seed))
	in := fleetInput{Hosts: fleetHosts, Seed: rng.Int63(), ScenarioSeed: rng.Int63()}
	req := func(name string, t vm.TypeID) fleet.VMRequest {
		return fleet.VMRequest{
			Name:         name,
			Tenant:       fleetTenants[rng.Intn(len(fleetTenants))],
			Type:         t,
			Workload:     specSuite[rng.Intn(len(specSuite))],
			WorkloadSeed: rng.Int63(),
		}
	}
	for i := 0; i < 16; i++ {
		in.VMs = append(in.VMs, req(fmt.Sprintf("v4-%02d", i), 3))
	}
	for i := 0; i < 4; i++ {
		in.VMs = append(in.VMs, req(fmt.Sprintf("as-%d", i), 2))
	}
	for i := 0; i < 28; i++ {
		in.VMs = append(in.VMs, req(fmt.Sprintf("v3-%02d", i), 2))
	}

	f, err := fleet.New(fleet.Config{Hosts: in.Hosts, Seed: in.Seed}, in.VMs)
	if err != nil {
		return fleetInput{}, err
	}
	m := newFleetModel(in.VMs, f.Placement())
	var ev []string
	add := func(format string, args ...any) { ev = append(ev, fmt.Sprintf(format, args...)) }

	// Tick 1: one spare per host leaves, opening slack everywhere.
	for h := 0; h < fleetHosts; h++ {
		name := m.onHost[h][len(m.onHost[h])-1]
		add("%s@1:remove", name)
		m.remove(name)
	}
	add("grp:as-@2:autoscale:1:4")

	// Power cycles run on VM3s outside the autoscale group; movers are
	// the VMs that are neither.
	var cyclers, movers []string
	for _, r := range in.VMs {
		switch {
		case strings.HasPrefix(r.Name, "as-") || m.removed[r.Name]:
		case r.Type == 2 && len(cyclers) < 3 && rng.Intn(4) == 0:
			cyclers = append(cyclers, r.Name)
		default:
			movers = append(movers, r.Name)
		}
	}
	for len(cyclers) < 3 {
		// Fall back deterministically: take VM3 movers from the back.
		for i := len(movers) - 1; i >= 0; i-- {
			if m.types[movers[i]] == 2 {
				cyclers = append(cyclers, movers[i])
				movers = append(movers[:i], movers[i+1:]...)
				break
			}
		}
	}
	rng.Shuffle(len(movers), func(i, j int) { movers[i], movers[j] = movers[j], movers[i] })

	const first = 12 // events start after the warm-up ticks
	period := (ticks - first - 2) / fleetCycles
	for c := 0; c < fleetCycles; c++ {
		base := first + c*period
		for k, name := range cyclers {
			off := base + 1 + k*period/16
			add("%s@%d:poweroff", name, off)
			add("%s@%d:poweron", name, off+period/8+rng.Intn(period/8+1))
		}
		// One live migration of a VM4. Capacity moves only between the
		// VM4 hosts: their games are small (a few slots), so the retired
		// slots each move leaves behind barely change a tick's cost, while
		// one more slot on an eight-VM host would double its game.
		for i, name := range movers {
			if m.types[name] != bigType {
				continue
			}
			if dst, ok := m.destination(m.host[name], bigType, c); ok {
				add("%s@%d:migrate:%d:%d", name, base+period/4, dst, fleetCopyTicks)
				m.move(name, dst)
				// Later cycles prefer VMs that have not moved yet.
				rest := append(append([]string(nil), movers[:i]...), movers[i+1:]...)
				movers = append(rest, name)
				break
			}
		}
		// One hot-plug, removed before the cycle ends; the model follows
		// the events in tick order, so the drain sees the hot-plugged VM.
		hp := fmt.Sprintf("hp-%d", c)
		dst, plugged := m.destination(-1, bigType, c)
		if plugged {
			r := req(hp, bigType)
			add("%s@%d:hotplug:%d:%s:%s:%s:%d", hp, base+period/2, dst, typeName(bigType), r.Tenant, r.Workload, r.WorkloadSeed)
			m.place(hp, bigType, dst)
		}
		if c == 1 {
			add("host:0@%d:drain:%d", base+5*period/8, fleetCopyTicks)
			add("host:0@%d:undrain", base+7*period/8)
			m.drain(0)
		}
		if plugged {
			add("%s@%d:remove", hp, base+3*period/4)
			m.remove(hp)
		}
	}
	in.Scenario = strings.Join(ev, ",")
	return in, nil
}

func typeName(t vm.TypeID) string {
	return [...]string{"small", "medium", "large", "xlarge"}[t]
}

// fleetModel tracks placement and free vCPUs while the timeline is
// generated, so every generated event is one the fleet accepts. It starts
// from fleet.New's placement and mirrors DrainHost's first-fit
// evacuation. Hosts only accept VM types they were calibrated for, i.e.
// types they held at construction.
type fleetModel struct {
	free       [fleetHosts]int
	calibrated [fleetHosts]map[vm.TypeID]bool
	onHost     [fleetHosts][]string
	host       map[string]int
	types      map[string]vm.TypeID
	removed    map[string]bool
}

var vcpus = map[vm.TypeID]int{0: 1, 1: 2, 2: 4, 3: 8}

// newFleetModel starts the model from placement (VM name to host); each
// host lists its VMs in request order.
func newFleetModel(reqs []fleet.VMRequest, placement map[string]int) *fleetModel {
	m := &fleetModel{host: map[string]int{}, types: map[string]vm.TypeID{}, removed: map[string]bool{}}
	for h := range m.free {
		m.free[h] = 32
		m.calibrated[h] = map[vm.TypeID]bool{}
	}
	for _, r := range reqs {
		h := placement[r.Name]
		m.place(r.Name, r.Type, h)
		m.calibrated[h][r.Type] = true
	}
	return m
}

func (m *fleetModel) place(name string, t vm.TypeID, h int) {
	m.free[h] -= vcpus[t]
	m.onHost[h] = append(m.onHost[h], name)
	m.host[name] = h
	m.types[name] = t
}

func (m *fleetModel) unplace(name string) {
	h := m.host[name]
	m.free[h] += vcpus[m.types[name]]
	for i, n := range m.onHost[h] {
		if n == name {
			m.onHost[h] = append(m.onHost[h][:i:i], m.onHost[h][i+1:]...)
			break
		}
	}
}

func (m *fleetModel) remove(name string) {
	m.unplace(name)
	m.removed[name] = true
}

func (m *fleetModel) move(name string, dst int) {
	t := m.types[name]
	m.unplace(name)
	m.place(name, t, dst)
}

// destination picks a host other than from that can take a VM of type t,
// scanning from a rotating start so destinations spread over the pool.
func (m *fleetModel) destination(from int, t vm.TypeID, rot int) (int, bool) {
	for i := 0; i < fleetHosts; i++ {
		h := (i + rot) % fleetHosts
		if h != from && m.calibrated[h][t] && m.free[h] >= vcpus[t] {
			return h, true
		}
	}
	return 0, false
}

// drain evacuates host h the way fleet.DrainHost does: each VM moves to
// the first other host (in index order) that takes its type. A VM no host
// takes is stopped in place and keeps its capacity; the undrain restarts
// it there.
func (m *fleetModel) drain(h int) {
	for _, name := range append([]string(nil), m.onHost[h]...) {
		for dst := 0; dst < fleetHosts; dst++ {
			if dst != h && m.calibrated[dst][m.types[name]] && m.free[dst] >= vcpus[m.types[name]] {
				m.move(name, dst)
				break
			}
		}
	}
}
