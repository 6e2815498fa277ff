package reduce

// WithRoundHook returns o with f called as each round starts, with the
// round's 1-based number.
func WithRoundHook(o Options, f func(round int)) Options {
	o.onRound = f
	return o
}

// RoundHook returns the hook WithRoundHook set on o, or nil.
func RoundHook(o Options) func(round int) { return o.onRound }
