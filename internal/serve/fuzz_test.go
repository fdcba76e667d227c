package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"capscale/internal/store"
)

// repeatedSizeBody repeats one size: Validate must refuse it.
const repeatedSizeBody = `{"sizes":[64,64]}`

// repeatedAxesBody is a 200 KB request repeating one size and one
// thread count 40,000 times each.
func repeatedAxesBody() []byte {
	return []byte(`{"sizes":[` + strings.Repeat("64,", 39999) + `64],"threads":[` +
		strings.Repeat("1,", 39999) + `1]}`)
}

// distinctAxesBody is a 358 KB dCAPS request of 20,000 distinct sizes
// on 20,000 distinct cluster specs: 400 million cells, to be counted
// without being built.
func distinctAxesBody() []byte {
	var b strings.Builder
	b.WriteString(`{"algorithms":["dCAPS"],"sizes":[`)
	for n := 1; n < 20000; n++ {
		fmt.Fprintf(&b, "%d,", n)
	}
	b.WriteString(`20000],"clusters":[`)
	for n := 1; n < 20000; n++ {
		fmt.Fprintf(&b, `"%dx1GbE",`, n)
	}
	b.WriteString(`"20000x1GbE"]}`)
	return []byte(b.String())
}

// FuzzSweepRequest: no body panics the request decoder, and every
// configuration it accepts is one a served sweep can run as asked —
// valid, within the cell limit, no value repeated on an axis (a repeat
// names one cell twice, so the sweep could never complete) and keyed
// by a well-formed fingerprint.
func FuzzSweepRequest(f *testing.F) {
	smoke, err := json.Marshal(smokeRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	f.Add([]byte(repeatedSizeBody))
	f.Add(repeatedAxesBody())
	f.Add(distinctAxesBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted an invalid configuration: %v", err)
		}
		if n := cfg.CellCount(); n > maxRequestCells {
			t.Fatalf("accepted %d cells (limit %d)", n, maxRequestCells)
		}
		axes := map[string][]string{}
		for _, a := range cfg.Algorithms {
			axes["algorithm"] = append(axes["algorithm"], a.String())
		}
		for _, n := range cfg.Sizes {
			axes["size"] = append(axes["size"], fmt.Sprint(n))
		}
		for _, p := range cfg.Threads {
			axes["threads"] = append(axes["threads"], fmt.Sprint(p))
		}
		for _, spec := range cfg.Clusters {
			axes["cluster"] = append(axes["cluster"], spec.String())
		}
		for axis, values := range axes {
			seen := map[string]bool{}
			for _, v := range values {
				if seen[v] {
					t.Fatalf("accepted %s %s twice", axis, v)
				}
				seen[v] = true
			}
		}
		if fp := cfg.Fingerprint(); !store.ValidFingerprint(fp) {
			t.Fatalf("malformed fingerprint %q", fp)
		}
	})
}
