// Command game is the demonstration's closing game (Figure 3): guess the
// combination of SSD scheduling policies — read/write preference and
// internal-IO ordering — that maximizes throughput while balancing mean
// latency and latency variability between IO types.
//
// Guess with flags, then the simulator runs the whole design space and tells
// you how far from the optimum you landed:
//
//	game -prefer reads -internal last
//	game -reveal            # print every combination's score
//
//eagletree:canonical
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"eagletree/internal/experiment"
)

func main() {
	var (
		prefer   = flag.String("prefer", "none", "your guess: none | reads | writes")
		internal = flag.String("internal", "equal", "your guess: equal | last | first")
		scale    = flag.String("scale", "small", "workload scale: small | full")
		reveal   = flag.Bool("reveal", false, "print the whole scored design space")
	)
	flag.Parse()

	sc, err := experiment.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "game:", err)
		os.Exit(2)
	}
	def, err := experiment.Lookup(sc, "E12")
	if err != nil {
		fmt.Fprintln(os.Stderr, "game:", err)
		os.Exit(1)
	}
	guess := fmt.Sprintf("prefer=%s,internal=%s", *prefer, *internal)

	fmt.Println("Running the scheduling design space (this simulates the full workload once per combination)...")
	res, err := experiment.Run(def)
	if err != nil {
		fmt.Fprintln(os.Stderr, "game:", err)
		os.Exit(1)
	}

	w := experiment.DefaultGameWeights()
	type scored struct {
		label string
		score float64
	}
	var ranked []scored
	for _, r := range res.Rows {
		ranked = append(ranked, scored{r.Label, w.Score(r.Report)})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })

	guessRank := -1
	for i, s := range ranked {
		if s.label == guess {
			guessRank = i
		}
	}
	if guessRank < 0 {
		fmt.Fprintf(os.Stderr, "game: %q is not in the design space\n", guess)
		os.Exit(1)
	}

	if *reveal {
		fmt.Println("\nrank  score      combination")
		for i, s := range ranked {
			marker := ""
			if s.label == guess {
				marker = "   <- your guess"
			}
			fmt.Printf("%4d  %9.1f  %s%s\n", i+1, s.score, s.label, marker)
		}
	}

	fmt.Printf("\nyour guess:  %s (score %.1f)\n", guess, ranked[guessRank].score)
	fmt.Printf("optimum:     %s (score %.1f)\n", ranked[0].label, ranked[0].score)
	switch {
	case guessRank == 0:
		fmt.Println("\nPerfect — you win the EagleTree T-shirt.")
	case guessRank <= 2:
		fmt.Printf("\nClose: rank %d of %d. The design space is less intuitive than it looks.\n", guessRank+1, len(ranked))
	default:
		fmt.Printf("\nRank %d of %d. Interesting solutions are sometimes counter-intuitive — try -reveal.\n", guessRank+1, len(ranked))
	}
}
