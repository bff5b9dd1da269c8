// TSP example: encode a 16-city Euclidean instance as a 225-bit QUBO
// (the paper's §4.1.2 formulation with penalty 2·MaxDist), solve it
// with ABS, decode the tour, and compare with the exact Held–Karp
// optimum.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"abs"
	"abs/internal/tsp"
)

func main() {
	inst := tsp.RandomEuclidean(16, 1016) // the ulysses16-sized twin
	fmt.Printf("instance: %s (%d cities)\n", inst.Name(), inst.Cities())

	// Exact reference: 16 cities are within Held–Karp reach.
	_, opt, err := tsp.HeldKarp(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal tour length (Held–Karp): %d\n", opt)

	enc, err := tsp.Encode(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QUBO: %d bits, penalty A = %d\n", enc.Vars(), enc.A)

	// Ask ABS for the exact optimum, with a generous cap.
	res, err := abs.SolveToTargetContext(context.Background(), enc.Problem(), enc.EnergyForLength(opt), 60*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	tour, err := enc.DecodeTour(res.Best)
	if err != nil {
		log.Fatalf("solver returned an invalid assignment: %v", err)
	}
	l, err := inst.TourLength(tour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ABS tour length: %d (optimum %d) in %v\n", l, opt, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("tour: %v\n", tour)
	if res.ReachedTarget && l != opt {
		log.Fatal("energy target reached but tour is not optimal — encoding bug")
	}
}
