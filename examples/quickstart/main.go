// Quickstart: generate a dense random QUBO instance (the paper's
// §4.1.3 synthetic benchmark) and solve it with Adaptive Bulk Search
// under a two-second budget.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"abs"
)

func main() {
	// A 1024-bit instance with uniform 16-bit weights; seed makes it
	// reproducible.
	p := abs.RandomProblem(1024, 42)
	fmt.Println("solving", abs.Describe(p))

	res, err := abs.SolveForContext(context.Background(), p, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("best energy      %d\n", res.BestEnergy)
	fmt.Printf("flips            %d\n", res.Flips)
	fmt.Printf("evaluated        %d solutions\n", res.Evaluated)
	fmt.Printf("search rate      %.3g solutions/s\n", res.SearchRate)
	fmt.Printf("search units     %d concurrent blocks\n", res.Blocks)

	// The result carries the solution vector; verify its energy
	// independently with the O(n²) evaluation.
	if p.Energy(res.Best) != res.BestEnergy {
		log.Fatal("energy verification failed")
	}
	fmt.Println("energy verified with direct O(n²) evaluation")
}
