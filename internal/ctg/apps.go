package ctg

// CruiseController returns a hand-crafted conditional task graph in the
// style of the paper's real-life example: a vehicle cruise-control
// application where one branch (obstacle detected) triggers a braking
// chain and the other a speed-maintenance chain, plus an optional
// driver-display update.
//
// Conditions: c0 = obstacle detected (p=0.3), c1 = display on (p=0.5).
func CruiseController() *Graph {
	cond := func(v int, val bool) Guard { return Guard{Var: v, Val: val} }
	none := Guard{Var: NoCond}
	return &Graph{
		Tasks: []Task{
			{Name: "sense-speed", WCET: 8, Power: 2.0, Guard: none},           // 0
			{Name: "sense-radar", WCET: 10, Power: 2.4, Guard: none},          // 1
			{Name: "filter", WCET: 12, Power: 1.8, Guard: none},               // 2
			{Name: "detect", WCET: 9, Power: 2.2, Guard: none},                // 3
			{Name: "brake-plan", WCET: 14, Power: 3.0, Guard: cond(0, true)},  // 4
			{Name: "brake-act", WCET: 7, Power: 2.6, Guard: cond(0, true)},    // 5
			{Name: "speed-plan", WCET: 11, Power: 2.1, Guard: cond(0, false)}, // 6
			{Name: "throttle", WCET: 6, Power: 1.7, Guard: cond(0, false)},    // 7
			{Name: "log", WCET: 5, Power: 1.2, Guard: none},                   // 8
			{Name: "display-fmt", WCET: 6, Power: 1.5, Guard: cond(1, true)},  // 9
			{Name: "display-out", WCET: 4, Power: 1.3, Guard: cond(1, true)},  // 10
			{Name: "commit", WCET: 5, Power: 1.6, Guard: none},                // 11
		},
		Deps: [][]int{
			{},        // 0
			{},        // 1
			{0},       // 2
			{1, 2},    // 3
			{3},       // 4
			{4},       // 5
			{3},       // 6
			{6},       // 7
			{3},       // 8
			{3},       // 9
			{9},       // 10
			{5, 7, 8}, // 11: joins whichever branch ran
		},
		CondProb: []float64{0.3, 0.5},
		Deadline: 90,
	}
}
