// Package schedule is the scheduling engine shared by the MinMemory and
// MinIO sides of the reproduction. The paper treats in-core traversals
// (Section IV) and out-of-core traversals (Section V) as two faces of the
// same simulation problem: replay an execution order over the tree while
// accounting for the set of resident files. This package implements that
// replay exactly once — Simulate — and everything else is layered on top:
//
//   - Simulate: the event-driven traversal simulator. With unlimited memory
//     it measures the peak (Algorithm 1's accounting, used by
//     traversal.Peak); with a finite budget and no Evictor it is a
//     feasibility checker; with an Evictor it is the out-of-core simulation
//     of Section V-B (used by minio.Simulate).
//   - Evictor and the six greedy eviction policies of Section V-B.
//   - Algorithm, Register and Lookup: a named registry over every solver in
//     the repository, so binaries and experiments select algorithms by
//     string instead of hard-wiring dispatch switches.
//   - Job/Row/Local.Run: a parallel batch evaluator over (instance ×
//     algorithm) grids expanded by GridSource (or MinMemoryGrid),
//     streaming structured rows for the experiment tables.
//
// The package depends only on tree, hillvalley and store; the solver packages
// (traversal, minio) import it and register their algorithms in init, the
// same way database/sql drivers do.
package schedule

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/hillvalley"
	"repro/internal/tree"
)

// Unlimited is the memory budget meaning "never evict, never overflow".
const Unlimited = math.MaxInt64

// Direction selects the orientation of the simulated traversal.
type Direction int

const (
	// TopDown replays an out-tree order: a node's input file is resident
	// from the moment its parent executes until the node itself executes.
	TopDown Direction = iota
	// BottomUp replays an in-tree (multifrontal) order: a node's file is
	// resident from the moment the node executes until its parent does.
	BottomUp
)

// Config parameterizes one simulation.
type Config struct {
	// Memory is the main-memory budget. Zero or negative means Unlimited.
	Memory int64
	// Direction is the traversal orientation; eviction requires TopDown.
	Direction Direction
	// Evict, when non-nil, is invoked whenever the next node does not fit;
	// nil turns overflow into an error (feasibility checking).
	Evict Evictor
	// Profile, when set, records the replay's memory curve — one
	// (peak, end-valley) pair per executed node — and canonicalizes it
	// through the hillvalley kernel into Simulation.Profile.
	Profile bool
}

// WriteEvent records one eviction: before executing order[Step], the input
// file of Node (size Size) was written to secondary memory.
type WriteEvent struct {
	Step int   `json:"step"`
	Node int   `json:"node"`
	Size int64 `json:"size"`
}

// Simulation is the outcome of a replay.
type Simulation struct {
	// Peak is the memory high-water mark actually reached (post-eviction
	// when a policy runs, so always ≤ the budget in that case).
	Peak int64
	// IO is the total volume written to secondary memory.
	IO int64
	// Writes lists the evictions in execution order.
	Writes []WriteEvent
	// Profile is the canonical hill–valley decomposition of the replay's
	// memory curve (only recorded with Config.Profile): hills
	// non-increasing, valleys non-decreasing, first hill = Peak. For an
	// optimal bottom-up traversal it equals Liu's certificate profile.
	Profile []hillvalley.Segment
}

// simScratch is the pooled per-simulation arena (the schedule-side cousin
// of the hillvalley kernel pool): position buffer, resident set, eviction
// snapshot, victim list, write log and profile curve, all recycled across
// Simulate calls so a steady-state replay allocates nothing. Results that
// outlive the call (Writes, Profile) are sealed into exact-size copies
// before the scratch returns to the pool.
type simScratch struct {
	pos     []int
	onDisk  []bool
	set     ResidentSet
	snap    []int
	victims []int
	writes  []WriteEvent
	curve   []hillvalley.Segment
}

var simScratches = sync.Pool{New: func() any { return new(simScratch) }}

// positions validates order as a traversal of t in the given orientation
// and returns each node's schedule step, reusing the pooled buffer. On an
// invalid order it reports ok = false without building an error — the
// caller reproduces the canonical message via IsTopDownOrder/IsBottomUpOrder
// on that cold path.
func (scr *simScratch) positions(t *tree.Tree, order []int, bottomUp bool) (pos []int, ok bool) {
	p := t.Len()
	if len(order) != p {
		return nil, false
	}
	if cap(scr.pos) < p {
		scr.pos = make([]int, p)
	}
	pos = scr.pos[:p]
	for i := range pos {
		pos[i] = -1
	}
	for step, v := range order {
		if v < 0 || v >= p || pos[v] != -1 {
			return nil, false
		}
		pos[v] = step
	}
	for i := 0; i < p; i++ {
		if i == t.Root() {
			continue
		}
		if pp := pos[t.Parent(i)]; (bottomUp && pp < pos[i]) || (!bottomUp && pp > pos[i]) {
			return nil, false
		}
	}
	return pos, true
}

// Simulate replays order over t under cfg. It is the single source of truth
// for memory and I/O accounting: the traversal package's peak computation
// and feasibility checker and the minio package's policy simulation all
// delegate here.
//
// Simulate fails when order is not a valid traversal in cfg.Direction, when
// the budget overflows without an Evictor, or when the Evictor cannot free
// enough space (the budget is below the node's own requirement).
func Simulate(t *tree.Tree, order []int, cfg Config) (Simulation, error) {
	mem := cfg.Memory
	if mem <= 0 {
		mem = Unlimited
	}
	scr := simScratches.Get().(*simScratch)
	scr.writes = scr.writes[:0]
	scr.curve = scr.curve[:0]
	var (
		out Simulation
		err error
	)
	if cfg.Direction == BottomUp {
		out, err = simulateBottomUp(t, order, mem, cfg.Evict, cfg.Profile, scr)
	} else {
		out, err = simulateTopDown(t, order, mem, cfg, scr)
	}
	// Seal everything that outlives the call out of the recycled scratch.
	if len(scr.writes) > 0 {
		out.Writes = append([]WriteEvent(nil), scr.writes...)
	}
	if err == nil && cfg.Profile {
		out.Profile = hillvalley.Canonicalize(scr.curve, nil)
	}
	simScratches.Put(scr)
	return out, err
}

func simulateTopDown(t *tree.Tree, order []int, mem int64, cfg Config, scr *simScratch) (Simulation, error) {
	pos, ok := scr.positions(t, order, false)
	if !ok {
		return Simulation{}, t.IsTopDownOrder(order)
	}
	evicting := cfg.Evict != nil
	gp, fastEvict := cfg.Evict.(greedyPolicy)
	var (
		set    *ResidentSet
		onDisk []bool
	)
	if evicting {
		p := t.Len()
		set = &scr.set
		set.reset(order, pos)
		set.Add(t.Root())
		if cap(scr.onDisk) < p {
			scr.onDisk = make([]bool, p)
		}
		onDisk = scr.onDisk[:p]
		clear(onDisk)
	}
	// residentSum tracks the input files of scheduled-but-unprocessed nodes
	// still held in memory. Initially the root's input file is resident.
	residentSum := t.F(t.Root())
	var out Simulation
	for step, j := range order {
		if !evicting || !onDisk[j] {
			// The input file of j is resident; it is about to be consumed,
			// so it leaves the eviction-candidate set.
			if evicting {
				set.Remove(j)
			}
			residentSum -= t.F(j)
		}
		// Memory while executing j: the other resident files plus
		// MemReq(j) = f(j) + n(j) + Σ children files (a previously evicted
		// input is staged back first, which needs the same room). The
		// children's file sum is walked once per step and reused below.
		childFiles := t.ChildFileSum(j)
		req := t.F(j) + t.N(j) + childFiles
		need := residentSum + req
		if need > mem {
			if !evicting {
				return out, fmt.Errorf("schedule: step %d (node %d): needs %d, budget %d", step, j, need, mem)
			}
			scr.snap = set.appendPositive(t, scr.snap[:0])
			var (
				victims []int
				err     error
			)
			if fastEvict {
				victims, err = gp.selectVictimsAppend(t, scr.snap, need-mem, scr.victims[:0])
				scr.victims = victims[:0:cap(victims)]
			} else {
				victims, err = cfg.Evict.SelectVictims(t, scr.snap, need-mem)
			}
			if err != nil {
				return out, fmt.Errorf("schedule: step %d (node %d): %w", step, j, err)
			}
			for _, v := range victims {
				set.Remove(v)
				residentSum -= t.F(v)
				onDisk[v] = true
				out.IO += t.F(v)
				scr.writes = append(scr.writes, WriteEvent{Step: step, Node: v, Size: t.F(v)})
			}
			if residentSum+req > mem {
				return out, fmt.Errorf("schedule: step %d (node %d): policy %s freed too little", step, j, cfg.Evict.Name())
			}
		}
		used := residentSum + req
		if used > out.Peak {
			out.Peak = used
		}
		if evicting && onDisk[j] {
			onDisk[j] = false // read back, then consumed by executing j
		}
		// Execute j: n(j) and f(j) vanish, children files appear.
		residentSum += childFiles
		if evicting {
			for k := 0; k < t.NumChildren(j); k++ {
				set.Add(t.Child(j, k))
			}
			if residentSum > mem {
				return out, fmt.Errorf("schedule: internal accounting error at step %d", step)
			}
		}
		if cfg.Profile {
			scr.curve = append(scr.curve, hillvalley.Segment{Hill: used, Valley: residentSum})
		}
	}
	return out, nil
}

// simulateBottomUp replays an in-tree order: resident memory is the files
// produced and not yet consumed by their parents. Eviction is defined on the
// top-down view only (Section V); use tree.ReverseOrder to convert.
func simulateBottomUp(t *tree.Tree, order []int, mem int64, ev Evictor, profile bool, scr *simScratch) (Simulation, error) {
	if ev != nil {
		return Simulation{}, fmt.Errorf("schedule: eviction requires a top-down traversal")
	}
	if _, ok := scr.positions(t, order, true); !ok {
		return Simulation{}, t.IsBottomUpOrder(order)
	}
	var resident int64 // Σ files produced and not yet consumed
	var out Simulation
	for step, i := range order {
		// While processing i, the children files are still resident (part
		// of resident), and f(i) + n(i) come alive.
		need := resident + t.F(i) + t.N(i)
		if need > out.Peak {
			out.Peak = need
		}
		if need > mem {
			return out, fmt.Errorf("schedule: step %d (node %d): needs %d, budget %d", step, i, need, mem)
		}
		resident += t.F(i) - t.ChildFileSum(i)
		if profile {
			scr.curve = append(scr.curve, hillvalley.Segment{Hill: need, Valley: resident})
		}
	}
	return out, nil
}

// ResidentSet is the set S of Section V-B: the resident input files,
// latest consumer first. A file is consumed by its node, so the set keeps
// one bit per schedule step, bit pos[v] for node v's file: adding and
// removing a file sets and clears a bit, and latest consumer first is
// highest bit first. It is exported for the few callers (minio's divisible
// lower bound) that run their own accounting over the same ordering.
type ResidentSet struct {
	order []int    // node per schedule step
	pos   []int    // schedule step per node
	bits  []uint64 // bit s set: order[s]'s file is resident
	top   int      // no word above bits[top] is nonzero
}

// NewResidentSet builds an empty set over a traversal: order lists the
// nodes by schedule step and pos is its inverse, the step at which each
// node consumes its input file.
func NewResidentSet(order, pos []int) *ResidentSet {
	s := &ResidentSet{}
	s.reset(order, pos)
	return s
}

// reset empties the set for another traversal, reusing its words.
func (s *ResidentSet) reset(order, pos []int) {
	words := (len(order) + 63) / 64
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	}
	s.bits = s.bits[:words]
	clear(s.bits)
	s.order, s.pos, s.top = order, pos, -1
}

// Add inserts node's file.
func (s *ResidentSet) Add(node int) {
	p := s.pos[node]
	w := p >> 6
	s.bits[w] |= 1 << (p & 63)
	if w > s.top {
		s.top = w
	}
}

// Remove deletes node's file; it panics if the file is absent (an
// accounting bug, not a runtime condition).
func (s *ResidentSet) Remove(node int) {
	p := s.pos[node]
	bit := uint64(1) << (p & 63)
	if s.bits[p>>6]&bit == 0 {
		panic("schedule: removing absent resident file")
	}
	s.bits[p>>6] &^= bit
}

// Latest returns the resident file with the latest consumer; ok is false
// when the set is empty.
func (s *ResidentSet) Latest() (node int, ok bool) {
	for ; s.top >= 0; s.top-- {
		if w := s.bits[s.top]; w != 0 {
			return s.order[s.top<<6+bits.Len64(w)-1], true
		}
	}
	return 0, false
}

// appendPositive appends S, latest consumer first, to dst with zero-size
// files dropped: the eviction candidates (writing a zero-size file frees
// nothing).
func (s *ResidentSet) appendPositive(t *tree.Tree, dst []int) []int {
	for k := s.top; k >= 0; k-- {
		for w := s.bits[k]; w != 0; {
			b := bits.Len64(w) - 1
			w &^= 1 << b
			if v := s.order[k<<6+b]; t.F(v) > 0 {
				dst = append(dst, v)
			}
		}
	}
	return dst
}
