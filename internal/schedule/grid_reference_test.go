package schedule_test

import (
	"fmt"
	"testing"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// refMinIOGrid is the eager, sequential MinIO grid expansion that GridSource
// is pinned against: for each instance, run the orderBy MinMemory solver,
// derive the budget sweep from its outcome, and emit one job per
// (budget, algorithm) replaying the solver's traversal — instance-major,
// then budget, then algorithm.
func refMinIOGrid(insts []schedule.Instance, orderBy string, algorithms []string, memories func(*tree.Tree, schedule.Outcome) ([]int64, error)) ([]schedule.Job, error) {
	orderAlg, err := schedule.Lookup(orderBy)
	if err != nil {
		return nil, err
	}
	if orderAlg.Kind() != schedule.KindMinMemory {
		return nil, fmt.Errorf("orderBy algorithm %q is not a MinMemory solver", orderBy)
	}
	var jobs []schedule.Job
	for _, inst := range insts {
		out, err := orderAlg.Run(schedule.Request{Tree: inst.Tree})
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", inst.Name, orderBy, err)
		}
		if out.Order == nil {
			return nil, fmt.Errorf("%s returns no traversal to replay", orderBy)
		}
		mems, err := memories(inst.Tree, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.Name, err)
		}
		for _, m := range mems {
			for _, a := range algorithms {
				jobs = append(jobs, schedule.Job{Instance: inst.Name, Tree: inst.Tree, Algorithm: a, Order: out.Order, Memory: m})
			}
		}
	}
	return jobs, nil
}

// policyJobs drains the policy half of GridSource (no MinMemory
// algorithms) into a slice, the way cmd/experiments builds its grid.
func policyJobs(t *testing.T, insts []schedule.Instance, orderBy string, policies []string, memories func(*tree.Tree, schedule.Outcome) ([]int64, error)) []schedule.Job {
	t.Helper()
	src, err := schedule.GridSource(schedule.InstanceSliceSource(insts), nil, orderBy, policies, memories)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, src)
}
