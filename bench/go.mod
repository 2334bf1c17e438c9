// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root do not see it. Its module path
// sits under the product's, which is what lets it import
// privapprox/internal/... through the replace below.
module privapprox/bench

go 1.24

require privapprox v0.0.0

replace privapprox => ../
