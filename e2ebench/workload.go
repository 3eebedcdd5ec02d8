package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
)

// Op kinds of a request list.
const (
	kindQuery = iota
	kindAppend
	kindMerge
)

var kindPaths = [...]string{"/query", "/append", "/merge"}

// op is one request of a workload's fixed list. Query ops name a query
// and the row count visible to it (the oracle answers over that prefix of
// the dataset); append ops name the first dataset row of their batch.
type op struct {
	kind  uint8
	query int32
	rows  int32
}

// appendBatch is the row count of one /append request.
const appendBatch = 64

// spec describes one workload.
type spec struct {
	name    string
	table   string
	clients int
	// rows is the table (or live base) size; opsPerSecond bounds how many
	// requests a run can issue, sizing the generated list.
	rows         int
	opsPerSecond int
}

// specs are the workloads; README.md gives the reason for each.
var specs = []spec{
	{name: "adhoc_scan", table: "adhoc", clients: 2, rows: 4 << 20, opsPerSecond: 600},
	{name: "dashboard_cached", table: "dash", clients: 2, rows: 1 << 20, opsPerSecond: 30000},
	{name: "live_ingest", table: "live", clients: 1, rows: 1 << 20, opsPerSecond: 4000},
}

func specFor(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// reqList is a workload's inputs, all generated from the seed: the
// reference dataset, the distinct queries and the request sequence.
// Every field is pointer-free apart from the slice headers.
type reqList struct {
	spec    spec
	data    *dataset
	queries []query
	ops     []op
	// warm lists the queries the untimed warm-up issues, in order
	// (dashboard_cached only).
	warm []int32
	// cycle, when set, is the length of the list's repeating unit; a
	// timed phase ends on a multiple of it, so every run measures whole
	// units (live_ingest: liveCycle, appends and queries up to a /merge).
	cycle int
}

// generate builds a request list of maxOps requests; the same seed
// always gives the same list. Generation is independent of wall time: a
// run sizes the list for opsPerSecond·seconds requests and stops
// wherever its time runs out.
func generate(s spec, seed uint64, maxOps int) *reqList {
	rng := rand.New(rand.NewPCG(seed, uint64(len(s.name))<<32|uint64(s.name[0])))
	l := &reqList{spec: s, data: &dataset{}}
	switch s.name {
	case "adhoc_scan":
		l.data.genRows(rng, s.rows, 0, dayMax)
		l.genAdhoc(rng, maxOps)
	case "dashboard_cached":
		l.data.genRows(rng, s.rows, 0, dayMax)
		l.genDashboard(rng, maxOps)
	case "live_ingest":
		l.data.genRows(rng, s.rows, 0, liveBaseDayMax)
		l.genLive(rng, maxOps)
	}
	return l
}

// uniqueQueries collects distinct queries by their rendered body.
type uniqueQueries struct {
	seen map[string]bool
	buf  []byte
	dups int
}

// add reports whether q is new. A generator that keeps drawing
// duplicates has a shape with too few distinct constants, a bug.
func (u *uniqueQueries) add(q *query, table string) bool {
	u.buf = q.appendJSON(u.buf[:0], table)
	if u.seen[string(u.buf)] {
		if u.dups++; u.dups > 10000 {
			panic("e2ebench: cannot draw a distinct query for " + string(u.buf))
		}
		return false
	}
	u.seen[string(u.buf)] = true
	u.dups = 0
	return true
}

// adhocOps is one cycle of the ad-hoc op mix — count : sum/avg :
// min/max : rows+order_by : rows+projection = 6 : 4 : 4 : 3 : 3.
var adhocOps = [...]uint8{opCount, opSum, opMin, opRows, opCount, opAvg, opMax, opRows, opCount, opSum,
	opRows, opCount, opMin, opAvg, opRows, opCount, opMax, opRows, opCount, opRows}

// adhocSelOrder visits the log-spaced selectivity strata of [0.1%, 30%]
// so that any run of consecutive strata spreads over the whole range.
var adhocSelOrder = [...]int{0, 5, 2, 7, 4, 9, 1, 6, 3, 8}

// genAdhoc draws distinct ad-hoc queries. Everything that sets a
// query's cost is fixed by its index i, so every seed issues the same
// mix and only the constants differ: the leaf count cycles through 1-3,
// the target selectivity through the strata (every 30 queries cover
// each leaf count at each stratum), the op through adhocOps, advanced
// one extra slot per 30 queries so that every 600 queries pair each op
// slot once with each leaf count and stratum (odd rows slots order,
// even ones project two or three columns), and the leaf columns, the
// All/Any choice and the aggregated, sorted and projected columns rotate
// with i. Interleaving the ops query by query keeps the load even over
// time, and any 1024 consecutive queries — what the result cache holds
// when a run stops — carry nearly the same mix.
func (l *reqList) genAdhoc(rng *rand.Rand, n int) {
	u := &uniqueQueries{seen: make(map[string]bool, n)}
	rows := 0
	for len(l.queries) < n {
		i := len(l.queries)
		block := i / 30
		q := query{orderBy: -1, op: adhocOps[(i+block)%len(adhocOps)], nLeaves: uint8(1 + i%3)}
		bucket := float64(adhocSelOrder[i/3%len(adhocSelOrder)]) + rng.Float64()
		sel := math.Exp(math.Log(0.001) + bucket/float64(len(adhocSelOrder))*math.Log(300))
		q.any = q.nLeaves > 1 && (i/3+block)%3 == 0
		target := math.Pow(sel, 1/float64(q.nLeaves))
		if q.any {
			target = sel / float64(q.nLeaves)
		}
		first := i/3 + block
		for k := 0; k < int(q.nLeaves); k++ {
			col := uint8((first + k) % numCols)
			if q.nLeaves == 1 && col == colCat {
				// A lone category leaf has too few distinct constants
				// to keep every query of its slot distinct.
				col = colDay
			}
			q.leaves[k] = leafFor(rng, col, target)
		}
		switch q.op {
		case opSum, opAvg:
			q.aggCol = uint8([]int{colA, colB, colPrice}[first%3])
		case opMin, opMax:
			q.aggCol = uint8(first % numCols)
		case opRows:
			if rows++; rows%2 == 1 {
				q.orderBy = int8([]int{colDay, colA, colB, colPrice}[rows/2%4])
				q.limit = int16(10 + rng.IntN(91))
			} else {
				for c := 0; c < 2+rows/2%2; c++ {
					q.cols |= 1 << ((first + 2*c) % numCols)
				}
				q.limit = int16(20 + rng.IntN(81))
			}
		}
		if u.add(&q, l.spec.table) {
			l.ops = append(l.ops, op{kind: kindQuery, query: int32(len(l.queries)), rows: int32(l.data.len())})
			l.queries = append(l.queries, q)
		} else if q.op == opRows {
			rows--
		}
	}
}

// leafFor draws a comparison on col that matches about a share sel of
// the rows, using the generator's known column distributions.
func leafFor(rng *rand.Rand, col uint8, sel float64) leaf {
	l := leaf{col: col}
	switch col {
	case colDay:
		w := max(1, int64(math.Round(sel*(dayMax+1))))
		l.cmp, l.lo = cmpBetween, rng.Int64N(dayMax+2-w)
		l.hi = l.lo + w - 1
	case colA:
		c := max(1, int64(math.Round(sel*(aMax+1))))
		switch rng.IntN(3) {
		case 0:
			l.cmp, l.lo = cmpLt, c
		case 1:
			l.cmp, l.lo = cmpGe, aMax+1-c
		default:
			l.cmp, l.lo = cmpBetween, rng.Int64N(aMax+2-c)
			l.hi = l.lo + c - 1
		}
	case colB:
		if rng.IntN(2) == 0 {
			l.cmp, l.lo = cmpLt, max(1, quantileB(sel))
		} else {
			l.cmp, l.lo = cmpGe, quantileB(1-sel)
		}
	case colPrice:
		c := max(1, int64(sel/(1-priceNullShare)*(priceMax+1)))
		c = min(c, priceMax)
		if rng.IntN(2) == 0 {
			l.cmp, l.lo = cmpLt, c
		} else {
			l.cmp, l.lo = cmpBetween, rng.Int64N(priceMax+2-c)
			l.hi = l.lo + c - 1
		}
	case colCat:
		// The category whose share is nearest sel, then a random nudge
		// so rare categories get drawn too.
		best := 0
		for k := 1; k < numCats; k++ {
			if math.Abs(catProb(k)-sel) < math.Abs(catProb(best)-sel) {
				best = k
			}
		}
		l.cmp, l.lo = cmpEq, int64(min(numCats-1, max(0, best+rng.IntN(5)-2)))
	}
	return l
}

// Dashboard shape: dashboardQueries distinct tiles, drawn with Zipf
// exponent dashboardZipf. With the default 1024-entry cache this misses
// on roughly a tenth of requests (the run prints the measured share).
const (
	dashboardQueries = 2048
	dashboardZipf    = 1.0
)

// genDashboard builds the dashboard tiles and the Zipf-skewed request
// sequence over them. Tile r's shape is fixed by its popularity rank —
// day window (7, 14, 30, 90 or 365 days ending in the last month),
// refinement (none, a category, an a-range) and op (count, sum(price),
// avg(a), max(b), min(price), the 10 cheapest rows) — so every seed has
// the same cost mix at every popularity; the seed draws the constants
// and the request sequence. The warm-up issues the 1024 most popular
// tiles, least popular first, so the cache starts with the hot set and
// the hottest tiles most recent.
func (l *reqList) genDashboard(rng *rand.Rand, n int) {
	u := &uniqueQueries{seen: make(map[string]bool, dashboardQueries)}
	windows := []int64{7, 14, 30, 90, 365}
	for len(l.queries) < dashboardQueries {
		r := len(l.queries)
		q := query{orderBy: -1, nLeaves: 1}
		w := windows[r%len(windows)]
		end := int64(dayMax - rng.IntN(31))
		q.leaves[0] = leaf{col: colDay, cmp: cmpBetween, lo: end - w + 1, hi: end}
		switch r / len(windows) % 3 {
		case 1:
			q.nLeaves = 2
			q.leaves[1] = leaf{col: colCat, cmp: cmpEq, lo: int64(rng.IntN(16))}
		case 2:
			q.nLeaves = 2
			q.leaves[1] = leaf{col: colA, cmp: cmpLt, lo: int64(256 * (1 + rng.IntN(15)))}
		}
		switch r / (3 * len(windows)) % 6 {
		case 0:
			q.op = opCount
		case 1:
			q.op, q.aggCol = opSum, colPrice
		case 2:
			q.op, q.aggCol = opAvg, colA
		case 3:
			q.op, q.aggCol = opMax, colB
		case 4:
			q.op, q.aggCol = opMin, colPrice
		default:
			q.op, q.orderBy, q.limit = opRows, colPrice, 10
		}
		if u.add(&q, l.spec.table) {
			l.queries = append(l.queries, q)
		}
	}
	cdf := make([]float64, dashboardQueries)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -dashboardZipf)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	for i := 0; i < n; i++ {
		l.ops = append(l.ops, op{kind: kindQuery, query: int32(drawCDF(rng, cdf)), rows: int32(l.data.len())})
	}
	for r := dashboardCacheEntries - 1; r >= 0; r-- {
		l.warm = append(l.warm, int32(r))
	}
}

// dashboardCacheEntries is the result-cache size of every server the
// benchmark starts (newServer); the dashboard warm-up fills it.
const dashboardCacheEntries = 1024

// Live shape: the base covers days 0..liveBaseDayMax; appended batches
// continue the calendar, one day per liveAppendsPerDay batches. Every
// liveMergeEvery appends the client forces a merge.
const (
	liveBaseDayMax    = 3071
	liveAppendsPerDay = 16
	liveMergeEvery    = 128
	liveQueriesPerAdd = 4
	// liveCycle is the op count from one /merge to the next, inclusive.
	liveCycle = liveMergeEvery*(liveQueriesPerAdd+1) + 1
)

// genLive builds the live interleaving: liveQueriesPerAdd queries, one
// /append of appendBatch rows, and a /merge after every liveMergeEvery
// appends. Queries alternate between count and fetching 50 row ids, and
// every other pair adds an a-range to the day leaf, which selects the
// days at or after a point up to 48 days (skewed recent) before the
// newest data.
func (l *reqList) genLive(rng *rand.Rand, n int) {
	l.cycle = liveCycle
	appends := 0
	for len(l.ops) < n {
		// Queries at one visible row count must differ; the row count
		// itself changes with every append, and with it the cache key.
		u := &uniqueQueries{seen: make(map[string]bool, liveQueriesPerAdd)}
		newest := int64(liveBaseDayMax + appends/liveAppendsPerDay)
		for i := 0; i < liveQueriesPerAdd; i++ {
			for {
				f, k := rng.Float64(), len(l.queries)
				q := query{orderBy: -1, nLeaves: 1}
				q.leaves[0] = leaf{col: colDay, cmp: cmpGe, lo: newest - int64(48*f*f)}
				if k/2%2 == 1 {
					q.nLeaves = 2
					q.leaves[1] = leaf{col: colA, cmp: cmpLt, lo: int64(256 + rng.IntN(aMax+1-256))}
				}
				if k%2 == 1 {
					q.op, q.limit = opRows, 50
				}
				if u.add(&q, l.spec.table) {
					l.ops = append(l.ops, op{kind: kindQuery, query: int32(len(l.queries)), rows: int32(l.data.len())})
					l.queries = append(l.queries, q)
					break
				}
			}
		}
		day := min(liveBaseDayMax+1+appends/liveAppendsPerDay, dayMax)
		l.ops = append(l.ops, op{kind: kindAppend, rows: int32(l.data.len())})
		l.data.genRows(rng, appendBatch, day, day)
		appends++
		if appends%liveMergeEvery == 0 {
			l.ops = append(l.ops, op{kind: kindMerge})
		}
	}
}

// stopIndex is where a timed phase that ran out of time when it drew
// request i stops: at i, or on a list with a cycle at the next
// multiple of it.
func (l *reqList) stopIndex(i int) int {
	if l.cycle == 0 {
		return i
	}
	return (i + l.cycle - 1) / l.cycle * l.cycle
}

// body renders request i's JSON body into buf.
func (l *reqList) body(i int, buf []byte) []byte {
	o := l.ops[i]
	switch o.kind {
	case kindAppend:
		return l.appendBody(int(o.rows), buf)
	case kindMerge:
		buf = append(buf, `{"table":"`...)
		buf = append(buf, l.spec.table...)
		return append(buf, `"}`...)
	}
	return l.queries[o.query].appendJSON(buf, l.spec.table)
}

// appendBody renders the /append batch starting at dataset row first.
func (l *reqList) appendBody(first int, buf []byte) []byte {
	d := l.data
	buf = append(buf, `{"table":"`...)
	buf = append(buf, l.spec.table...)
	buf = append(buf, `","rows":[`...)
	for r := first; r < first+appendBatch; r++ {
		if r > first {
			buf = append(buf, ',')
		}
		for c := uint8(0); c < numCols; c++ {
			if c == 0 {
				buf = append(buf, '{')
			} else {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, colNames[c])
			buf = append(buf, ':')
			if v, null := d.value(c, r); null {
				buf = append(buf, "null"...)
			} else {
				buf = appendArg(buf, c, v)
			}
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}
