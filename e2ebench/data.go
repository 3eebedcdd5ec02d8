package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"byteslice"
)

// Column indexes and domains of the benchmark schema. Every workload uses
// the same five columns; only the row count and the day span differ.
const (
	colDay = iota
	colA
	colB
	colPrice
	colCat
	numCols
)

var colNames = [numCols]string{"day", "a", "b", "price", "cat"}

const (
	dayMax   = 1<<12 - 1 // day: clustered ascending with jitter, zone maps on
	aMax     = 1<<12 - 1 // a: uniform 12-bit
	bMax     = 1<<20 - 1 // b: skewed 20-bit, b = bMax·u³
	priceMax = 999_999   // price: cents, decimal(2) 0.00..9999.99
	numCats  = 64        // cat: 64-value dictionary, Zipf-skewed

	priceNullShare = 0.05
)

// catName is the dictionary string of category k; zero padding keeps the
// dictionary's lexical order equal to k's numeric order.
func catName(k int) string { return fmt.Sprintf("c%02d", k) }

// catCDF is the cumulative distribution of the category skew
// (P(k) ∝ 1/(k+1)).
var catCDF = func() [numCats]float64 {
	var cdf [numCats]float64
	total := 0.0
	for k := range cdf {
		total += 1 / float64(k+1)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}()

func catProb(k int) float64 {
	if k == 0 {
		return catCDF[0]
	}
	return catCDF[k] - catCDF[k-1]
}

// dataset is the benchmark's reference copy of a table: one pointer-free
// slice per column, so it adds nothing for the garbage collector to
// trace while requests are timed. Prices are cents with -1 for NULL;
// categories are dictionary indexes. Rows past a live table's base are
// the rows the workload appends, in append order.
type dataset struct {
	cols [numCols][]int32
}

func (d *dataset) len() int { return len(d.cols[colDay]) }

// genRows appends n rows whose days climb from dayLo to dayHi with a
// jitter of ±3 days. The first rows cycle through every category, so
// any table built from a prefix of at least numCats rows has the full
// dictionary and appended rows always encode.
func (d *dataset) genRows(rng *rand.Rand, n, dayLo, dayHi int) {
	span := float64(dayHi - dayLo + 1)
	start := d.len()
	for i := 0; i < n; i++ {
		day := dayLo + int(float64(i)*span/float64(n)) + rng.IntN(7) - 3
		u := rng.Float64()
		price := int32(rng.IntN(priceMax + 1))
		if rng.Float64() < priceNullShare {
			price = -1
		}
		cat := drawCDF(rng, catCDF[:])
		if start+i < numCats {
			cat = start + i
		}
		d.cols[colDay] = append(d.cols[colDay], int32(min(max(day, dayLo), dayHi)))
		d.cols[colA] = append(d.cols[colA], int32(rng.IntN(aMax+1)))
		d.cols[colB] = append(d.cols[colB], int32(float64(bMax)*u*u*u))
		d.cols[colPrice] = append(d.cols[colPrice], price)
		d.cols[colCat] = append(d.cols[colCat], int32(cat))
	}
}

// drawCDF samples an index from a cumulative distribution.
func drawCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// value returns row r's value in column c and whether it is NULL.
func (d *dataset) value(c uint8, r int) (int64, bool) {
	v := d.cols[c][r]
	return int64(v), v < 0
}

// inputs are the facade's column constructors' arguments for a row
// range. They are pointerful (the strings) and large, so the benchmark
// builds them outside the timed set-up and drops them before timing.
type inputs struct {
	day, a, b []int64
	price     []float64
	nulls     []int
	cat       []string
}

func (d *dataset) inputs(lo, hi int) *inputs {
	n := hi - lo
	in := &inputs{day: make([]int64, n), a: make([]int64, n), b: make([]int64, n),
		price: make([]float64, n), cat: make([]string, n)}
	var names [numCats]string
	for k := range names {
		names[k] = catName(k)
	}
	for i := 0; i < n; i++ {
		r := lo + i
		in.day[i], in.a[i], in.b[i] = int64(d.cols[colDay][r]), int64(d.cols[colA][r]), int64(d.cols[colB][r])
		if p := d.cols[colPrice][r]; p < 0 {
			in.nulls = append(in.nulls, i)
		} else {
			in.price[i] = cents(int64(p))
		}
		in.cat[i] = names[d.cols[colCat][r]]
	}
	return in
}

// cents converts a price in cents to the decimal the column stores.
func cents(c int64) float64 { return float64(c) / 100 }

// table builds the facade table; zone maps go on the clustered day
// column, where they prune.
func (in *inputs) table() (*byteslice.Table, error) {
	day, err := byteslice.NewIntColumn("day", in.day, 0, dayMax, byteslice.WithZoneMaps())
	if err != nil {
		return nil, err
	}
	a, err := byteslice.NewIntColumn("a", in.a, 0, aMax)
	if err != nil {
		return nil, err
	}
	b, err := byteslice.NewIntColumn("b", in.b, 0, bMax)
	if err != nil {
		return nil, err
	}
	price, err := byteslice.NewDecimalColumn("price", in.price, 0, cents(priceMax), 2, byteslice.WithNulls(in.nulls))
	if err != nil {
		return nil, err
	}
	cat, err := byteslice.NewStringColumn("cat", in.cat)
	if err != nil {
		return nil, err
	}
	return byteslice.NewTable(day, a, b, price, cat)
}

// appendRow is row r as IngestTable.Append wants it.
func (d *dataset) appendRow(r int) map[string]any {
	row := map[string]any{
		"day": int64(d.cols[colDay][r]), "a": int64(d.cols[colA][r]), "b": int64(d.cols[colB][r]),
		"price": nil, "cat": catName(int(d.cols[colCat][r])),
	}
	if p := d.cols[colPrice][r]; p >= 0 {
		row["price"] = cents(int64(p))
	}
	return row
}

// quantileB inverts the b skew: the value below which a share s of rows
// fall.
func quantileB(s float64) int64 { return int64(float64(bMax) * math.Pow(s, 3)) }
