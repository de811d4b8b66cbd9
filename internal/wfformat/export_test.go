package wfformat

// Builders shared with the external test package, which exists so that
// tests can import internal/recipes (it imports this package).
var (
	BuildTask    = buildTask
	MiniBlast    = miniBlast
	FastParse    = fastParse
	SameWorkflow = sameWorkflow
)
