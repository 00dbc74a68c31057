package schedule

// SolvedOutcome reports the outcome and seconds a source attached to j, if
// any, for the external tests.
func SolvedOutcome(j Job) (Outcome, float64, bool) {
	if j.solved == nil {
		return Outcome{}, 0, false
	}
	return j.solved.out, j.solved.seconds, true
}

// WithSolved returns j carrying out, solved in seconds, as its precomputed
// outcome.
func WithSolved(j Job, out Outcome, seconds float64) Job {
	j.solved = &solvedJob{out: out, seconds: seconds}
	return j
}
