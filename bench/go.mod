// bench is a module of its own, not a package of the root module,
// because the contract the benchmark is written to asks for it: "a
// benchmark that has to be compiled is a package of its own in the
// benchmark's directory, with its own build file". The price is that
// `go build ./... && go test ./...` at the root does not reach it: run
// `go vet . && go test .` here as well when internal/ changes.
module wfserverless/bench

go 1.22

require wfserverless v0.0.0

replace wfserverless => ../
