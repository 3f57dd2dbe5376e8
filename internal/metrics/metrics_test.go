package metrics_test

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"graphxmt/internal/metrics"
)

func TestCounterGauge(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.Counter("graphxmt_test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Get-or-create: the same (name, labels) hands back the same instrument.
	if r.Counter("graphxmt_test_total", "a counter") != c {
		t.Fatal("second Counter call returned a different instrument")
	}
	g := r.Gauge("graphxmt_test_gauge", "a gauge", metrics.Label{Key: "shard", Value: "0"})
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g2 := r.Gauge("graphxmt_test_gauge", "a gauge", metrics.Label{Key: "shard", Value: "1"})
	if g2 == g {
		t.Fatal("different labels returned the same instrument")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := metrics.NewHistogram(metrics.Pow2Bounds(16))
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	if got := h.Sum(); got != 500500 {
		t.Fatalf("sum = %d, want 500500", got)
	}
	// Log2 buckets resolve within a factor of two; the p50 of 1..1000 is
	// 500, which lands in the (256,512] bucket.
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 512 {
		t.Fatalf("p50 = %d, want within (256,512]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 512 || p99 > 1024 {
		t.Fatalf("p99 = %d, want within (512,1024]", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
	var empty = metrics.NewHistogram(metrics.Pow2Bounds(4))
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	// Overflow values land in +Inf and report the largest finite bound.
	over := metrics.NewHistogram(metrics.Pow2Bounds(4))
	over.Observe(1 << 20)
	if got := over.Quantile(0.5); got != 8 {
		t.Fatalf("+Inf bucket quantile = %d, want 8 (largest finite bound)", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := metrics.NewHistogram(metrics.DurationBounds)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(seed + i)
			}
		}(int64(w * 100))
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("graphxmt_messages_logical_total", "logical messages").Add(12345)
	r.Counter("graphxmt_worker_busy_us_total", "per-worker busy", metrics.Label{Key: "worker", Value: "0"}).Add(10)
	r.Counter("graphxmt_worker_busy_us_total", "per-worker busy", metrics.Label{Key: "worker", Value: "1"}).Add(20)
	r.Gauge("graphxmt_frontier_edges", "frontier size").Set(99)
	h := r.Histogram("graphxmt_superstep_wall_us", "superstep wall", metrics.Pow2Bounds(8))
	h.Observe(3)
	h.Observe(100)
	h.Observe(1 << 30) // +Inf bucket

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE graphxmt_messages_logical_total counter",
		"graphxmt_messages_logical_total 12345",
		`graphxmt_worker_busy_us_total{worker="0"} 10`,
		`graphxmt_worker_busy_us_total{worker="1"} 20`,
		"# TYPE graphxmt_frontier_edges gauge",
		"graphxmt_frontier_edges 99",
		"# TYPE graphxmt_superstep_wall_us histogram",
		`graphxmt_superstep_wall_us_bucket{le="4"} 1`,
		`graphxmt_superstep_wall_us_bucket{le="128"} 2`,
		`graphxmt_superstep_wall_us_bucket{le="+Inf"} 3`,
		"graphxmt_superstep_wall_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := metrics.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition does not validate: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"empty", "\n# just a comment\n"},
		{"bad metric name", "1bad_name 3\n"},
		{"bad value", "graphxmt_x{a=\"b\"} notanumber\n"},
		{"bad label name", "graphxmt_x{1a=\"b\"} 3\n"},
		{"unquoted label", "graphxmt_x{a=b} 3\n"},
		{"duplicate series", "graphxmt_x 1\ngraphxmt_x 2\n"},
		{"duplicate type", "# TYPE graphxmt_x counter\n# TYPE graphxmt_x gauge\ngraphxmt_x 1\n"},
		{"unknown type", "# TYPE graphxmt_x widget\ngraphxmt_x 1\n"},
		{
			"histogram without +Inf",
			"# TYPE graphxmt_h histogram\ngraphxmt_h_bucket{le=\"1\"} 1\ngraphxmt_h_sum 1\ngraphxmt_h_count 1\n",
		},
		{
			"histogram not cumulative",
			"# TYPE graphxmt_h histogram\ngraphxmt_h_bucket{le=\"1\"} 5\ngraphxmt_h_bucket{le=\"+Inf\"} 3\ngraphxmt_h_sum 1\ngraphxmt_h_count 3\n",
		},
		{
			"histogram count mismatch",
			"# TYPE graphxmt_h histogram\ngraphxmt_h_bucket{le=\"1\"} 1\ngraphxmt_h_bucket{le=\"+Inf\"} 3\ngraphxmt_h_sum 1\ngraphxmt_h_count 4\n",
		},
		{
			"bucket without le",
			"# TYPE graphxmt_h histogram\ngraphxmt_h_bucket{x=\"1\"} 1\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := metrics.ValidateExposition(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("validator accepted %s:\n%s", tc.name, tc.doc)
			}
		})
	}
}

// TestExpositionFile validates an externally captured exposition document —
// CI scrapes a live bspgraph -http endpoint mid-run and points this test at
// the saved body.
func TestExpositionFile(t *testing.T) {
	path := os.Getenv("GRAPHXMT_METRICS_FILE")
	if path == "" {
		t.Skip("GRAPHXMT_METRICS_FILE not set")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := metrics.ValidateExposition(f); err != nil {
		t.Fatalf("exposition at %s invalid: %v", path, err)
	}
}

func TestInvalidRegistrationPanics(t *testing.T) {
	r := metrics.NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad name", func() { r.Counter("0bad", "") })
	mustPanic("bad label", func() { r.Counter("graphxmt_ok_total", "", metrics.Label{Key: "0bad", Value: "x"}) })
	r.Counter("graphxmt_kind_total", "")
	mustPanic("kind mismatch", func() { r.Gauge("graphxmt_kind_total", "") })
	mustPanic("unsorted bounds", func() { metrics.NewHistogram([]int64{4, 2}) })
}
