package budget

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchShapes is the fleet-size curve (nodes × kernels) the budget
// benchmarks sweep; at 1024×32 the fleet carries ~10⁵ front points.
var benchShapes = []struct{ nodes, kernels int }{
	{4, 4}, {16, 8}, {64, 16}, {256, 16}, {1024, 32},
}

// benchSolver times one solver against fleet size: nodes × kernels items,
// each with a randomized front, under a budget of 0.8 per node.
func benchSolver(b *testing.B, solve func([]Item, Budget) (Plan, error)) {
	for _, shape := range benchShapes {
		b.Run(fmt.Sprintf("nodes=%d/kernels=%d", shape.nodes, shape.kernels), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			var items []Item
			for n := 0; n < shape.nodes; n++ {
				for k := 0; k < shape.kernels; k++ {
					items = append(items, Item{
						Node:   fmt.Sprintf("node-%03d", n),
						Kernel: fmt.Sprintf("kern-%03d", k),
						Weight: 1 / float64(shape.kernels),
						Front:  randFront(rng),
					})
				}
			}
			budget := Budget{Total: 0.8 * float64(shape.nodes)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solve(items, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBudgetPlan measures full governor plan latency (all three arms)
// against fleet size.
func BenchmarkBudgetPlan(b *testing.B) { benchSolver(b, Solve) }

// BenchmarkSolveUniform measures the uniform-cap arm alone, the term that
// was quadratic in total front points before its cap search went binary.
func BenchmarkSolveUniform(b *testing.B) { benchSolver(b, SolveUniform) }
