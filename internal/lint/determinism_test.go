package lint

import "testing"

func TestDeterminism(t *testing.T) {
	runFixtures(t, Determinism, []fixtureTest{
		{
			name: "time.Now flagged in sim",
			pkg:  "repro/internal/pipeline",
			src: `package pipeline
import "time"
func Stamp() time.Time { return time.Now() }
`,
			want: 1,
			grep: "wall-clock read time.Now",
		},
		{
			name: "time.Since flagged in plan",
			pkg:  "repro/internal/plan",
			src: `package plan
import "time"
func Elapsed(t0 time.Time) time.Duration { return time.Since(t0) }
`,
			want: 1,
			grep: "time.Since",
		},
		{
			name: "wall clock fine outside scope",
			pkg:  "repro/internal/runtime",
			src: `package runtime
import "time"
func Stamp() time.Time { return time.Now() }
`,
			want: 0,
		},
		{
			name: "global rand flagged",
			pkg:  "repro/internal/cache",
			src: `package cache
import "math/rand"
func Pick(n int) int { return rand.Intn(n) }
`,
			want: 1,
			grep: "global RNG rand.Intn",
		},
		{
			name: "seeded rand fine",
			pkg:  "repro/internal/access",
			src: `package access
import "math/rand"
func Shuffle(n int, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	return r.Perm(n)
}
`,
			want: 0,
		},
		{
			name: "map range building slice flagged",
			pkg:  "repro/internal/perfmodel",
			src: `package perfmodel
func Keys(m map[int]string) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: 1,
			grep: "append to out inside range over map",
		},
		{
			name: "map range printing flagged",
			pkg:  "repro/internal/pipeline",
			src: `package pipeline
import "fmt"
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
			want: 1,
			grep: "output order depends on map iteration order",
		},
		{
			name: "map range channel send flagged",
			pkg:  "repro/internal/distcache",
			src: `package distcache
func Drain(m map[int]int, ch chan<- int) {
	for _, v := range m {
		ch <- v
	}
}
`,
			want: 1,
			grep: "channel send inside range over map",
		},
		{
			name: "order-independent map range fine",
			pkg:  "repro/internal/cache",
			src: `package cache
func Sum(m map[int]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}
`,
			want: 0,
		},
		{
			name: "append to loop-local slice fine",
			pkg:  "repro/internal/access",
			src: `package access
func Widths(m map[int][]int) int {
	total := 0
	for _, row := range m {
		var local []int
		local = append(local, row...)
		total += len(local)
	}
	return total
}
`,
			want: 0,
		},
		{
			name: "range over slice fine",
			pkg:  "repro/internal/plan",
			src: `package plan
func Copy(in []int) []int {
	var out []int
	for _, v := range in {
		out = append(out, v)
	}
	return out
}
`,
			want: 0,
		},
		{
			name: "allow directive suppresses",
			pkg:  "repro/internal/distcache",
			src: `package distcache
import "time"
//lint:allow determinism calibration helper, result never reaches a plan
func Stamp() time.Time { return time.Now() }
`,
			want: 0,
		},
	})
}
