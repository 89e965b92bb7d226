package diffserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeBody is the request CI's daemon smoke test sends: a known-good diff.
const smokeBody = `{"schema_version":"1.0","lang":"exp","source":{"sexpr":"(Add (Num 1) (Num 2))"},"target":{"sexpr":"(Mul (Num 1) (Num 3))"}}`

// FuzzServeHTTP drives Server.ServeHTTP with arbitrary POST /v1/diff and
// /v1/batch bodies. Any body may be rejected, but every answer must be
// below 500 and decode as a wire response of the endpoint's shape, the
// server-error counter must not move, and a known-good request sent after
// it must still get 200. The seeds are the CI smoke body and diff and
// batch requests built from the S-expressions of the property-test
// regression corpus.
//
//	go test -run '^$' -fuzz FuzzServeHTTP -fuzztime 10s ./internal/diffserve/
func FuzzServeHTTP(f *testing.F) {
	f.Add(false, []byte(smokeBody))
	f.Add(true, []byte(`{"schema_version":"1.0","lang":"exp","pairs":[{"source":{"sexpr":"(Num 1)"},"target":{"sexpr":"(Num 2)"}}]}`))
	for _, rec := range regressRecords(f) {
		var pairs []BatchPair
		for i, src := range rec.sexprs {
			dst := rec.sexprs[(i+1)%len(rec.sexprs)]
			f.Add(false, mustJSON(f, DiffRequest{SchemaVersion: WireVersion, Lang: rec.lang,
				Source: TreeInput{SExpr: src}, Target: TreeInput{SExpr: dst}, WantPatched: true}))
			pairs = append(pairs, BatchPair{Source: TreeInput{SExpr: src}, Target: TreeInput{SExpr: dst}})
		}
		f.Add(true, mustJSON(f, BatchRequest{SchemaVersion: WireVersion, Lang: rec.lang, Pairs: pairs}))
	}

	srv, err := NewServer(Config{
		Workers:     1,
		BatchWindow: 50 * time.Microsecond,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/diff"
		if batch {
			path = "/v1/batch"
		}
		serverErrors := srv.m.serverErrors.Load()
		w := post(path, body)
		if w.Code >= 500 {
			t.Fatalf("%s answered %d: %s", path, w.Code, w.Body)
		}
		checkWireResponse(t, path, w)
		if n := srv.m.serverErrors.Load(); n != serverErrors {
			t.Fatalf("server-error counter moved %d -> %d", serverErrors, n)
		}
		if w := post("/v1/diff", []byte(smokeBody)); w.Code != http.StatusOK {
			t.Fatalf("known-good request after the fuzz input answered %d: %s", w.Code, w.Body)
		}
	})
}

// checkWireResponse decodes w's body strictly as the wire response the
// endpoint promises: a DiffResponse (an error answer is its error-only
// subset) for /v1/diff; a BatchResponse on 200, else an ErrorResponse,
// for /v1/batch. Every script the answer carries must decode.
func checkWireResponse(t *testing.T, path string, w *httptest.ResponseRecorder) {
	t.Helper()
	decode := func(v any) {
		dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("%s answered %d with a body that is not a wire response: %v\n%s", path, w.Code, err, w.Body)
		}
	}
	checkResult := func(r *DiffResponse) {
		if r.SchemaVersion != WireVersion {
			t.Fatalf("%s: result schema_version %q, want %q", path, r.SchemaVersion, WireVersion)
		}
		if r.Error != nil {
			if r.Error.Kind == "" {
				t.Fatalf("%s: error without a kind: %+v", path, r.Error)
			}
			return
		}
		if r.Script == nil || r.Stats == nil {
			t.Fatalf("%s: success without script or stats: %s", path, w.Body)
		}
		if _, err := r.Script.Decode(); err != nil {
			t.Fatalf("%s: script does not decode: %v", path, err)
		}
	}
	switch {
	case path == "/v1/diff":
		var r DiffResponse
		decode(&r)
		if (w.Code == http.StatusOK) != (r.Error == nil) {
			t.Fatalf("%s: status %d disagrees with error %+v", path, w.Code, r.Error)
		}
		checkResult(&r)
	case w.Code == http.StatusOK:
		var r BatchResponse
		decode(&r)
		if r.SchemaVersion != WireVersion || len(r.Results) == 0 {
			t.Fatalf("%s: malformed batch response: %s", path, w.Body)
		}
		for i := range r.Results {
			checkResult(&r.Results[i])
		}
	default:
		var r ErrorResponse
		decode(&r)
		if r.SchemaVersion != WireVersion || r.Error.Kind == "" {
			t.Fatalf("%s: malformed error response: %s", path, w.Body)
		}
	}
}

// regressRecord is the language and S-expressions of one property-test
// regression record.
type regressRecord struct {
	lang   string
	sexprs []string
}

// regressRecords reads the property-test regression corpus: each record's
// "lang" and its string fields that start with '(', in field order.
func regressRecords(f *testing.F) []regressRecord {
	f.Helper()
	var files []string
	for _, pat := range []string{"*.json", "*/*.json"} {
		m, err := filepath.Glob(filepath.Join("..", "proptest", "testdata", "regress", pat))
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		f.Fatal("no regression corpus found")
	}
	var out []regressRecord
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(data, &rec); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		lang, _ := rec["lang"].(string)
		keys := make([]string, 0, len(rec))
		for k := range rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r := regressRecord{lang: lang}
		for _, k := range keys {
			if s, ok := rec[k].(string); ok && strings.HasPrefix(s, "(") {
				r.sexprs = append(r.sexprs, s)
			}
		}
		if lang != "" && len(r.sexprs) > 0 {
			out = append(out, r)
		}
	}
	return out
}

func mustJSON(f *testing.F, v any) []byte {
	f.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
