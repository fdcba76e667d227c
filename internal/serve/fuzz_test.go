package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"capscale/internal/store"
)

// repeatedSizeBody repeats one size: Validate must refuse it.
const repeatedSizeBody = `{"sizes":[64,64]}`

// Single cells too large to serve: a Strassen tree at n = 32768, and
// DStrassen on 256 and on 4096 ranks.
const (
	hugeSizeBody    = `{"algorithms":["Strassen"],"sizes":[32768],"threads":[1]}`
	manyNodesBody   = `{"algorithms":["DStrassen"],"sizes":[8192],"clusters":["256x1GbE"]}`
	hugeClusterBody = `{"algorithms":["DStrassen"],"sizes":[1024],"clusters":["4096x1GbE"]}`
)

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
// valid, within the cell, size and node limits, no value repeated on
// an axis (a repeat names one cell twice, so the sweep could never
// complete) and keyed by a well-formed fingerprint.
func FuzzSweepRequest(f *testing.F) {
	smoke, err := json.Marshal(smokeRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	f.Add([]byte(repeatedSizeBody))
	f.Add(repeatedAxesBody())
	f.Add(distinctAxesBody())
	f.Add([]byte(hugeSizeBody))
	f.Add([]byte(manyNodesBody))
	f.Add([]byte(hugeClusterBody))
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
		for _, n := range cfg.Sizes {
			if n > maxRequestSize {
				t.Fatalf("accepted size %d (limit %d)", n, maxRequestSize)
			}
		}
		for _, spec := range cfg.Clusters {
			if spec.Nodes > maxRequestNodes {
				t.Fatalf("accepted cluster spec %s (limit %d nodes)", spec, maxRequestNodes)
			}
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

// FuzzResumeToken sends arbitrary resume tokens, as ?from= or as a
// Last-Cell header, to GET /v1/result/{fp} of a stored two-record
// result. resumeToken must never panic and accepts only tokens ≥ 0;
// the endpoint answers every token resumeToken refuses with 400, and
// no token with a 5xx. Run with
// `go test -fuzz=FuzzResumeToken ./internal/serve`; the seed corpus
// runs under plain `go test`.
func FuzzResumeToken(f *testing.F) {
	for _, tok := range []string{"0", "2", "3", "", "-1", "1e3", "123456789012345678901234567890", " 1", "+1"} {
		f.Add(tok, false)
		f.Add(tok, true)
	}
	srv, err := New(Config{StoreDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	req := smokeRequest()
	body, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)))
	if post.Code != http.StatusOK {
		f.Fatalf("storing the result: status %d", post.Code)
	}
	cfg, err := req.Config()
	if err != nil {
		f.Fatal(err)
	}
	path := "/v1/result/" + cfg.Fingerprint()
	f.Fuzz(func(t *testing.T, tok string, header bool) {
		r := httptest.NewRequest("GET", path+"?"+url.Values{"from": {tok}}.Encode(), nil)
		if header {
			r = httptest.NewRequest("GET", path, nil)
			r.Header.Set("Last-Cell", tok)
		}
		n, err := resumeToken(r)
		if err == nil && n < 0 {
			t.Fatalf("accepted token %q as %d", tok, n)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch {
		case w.Code >= 500:
			t.Fatalf("token %q: status %d: %s", tok, w.Code, w.Body)
		case err != nil && w.Code != http.StatusBadRequest:
			t.Fatalf("token %q refused (%v), but answered %d", tok, err, w.Code)
		}
	})
}
