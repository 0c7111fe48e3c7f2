package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerLifecycle(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Before any snapshot: unhealthy, but the probe responds.
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "no snapshot") {
		t.Fatalf("healthz before snapshot = %d %q", code, body)
	}

	s.Update(map[string]any{"iteration": 3, "hit_ratio": 0.5})
	if s.Updates() != 1 {
		t.Fatalf("updates = %d", s.Updates())
	}
	code, body = get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz after snapshot = %d", code)
	}
	var out struct {
		Status  string `json:"status"`
		Updates uint64 `json:"updates"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Status != "ok" || out.Updates != 1 {
		t.Fatalf("healthz body wrong: %+v", out)
	}
}

func TestServerConcurrentUpdates(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	//lint:allow goroutine runs a fixed 200 updates, closes done, and the test blocks on <-done before asserting
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Update(map[string]int{"i": i})
		}
	}()
	for i := 0; i < 50; i++ {
		get(t, "http://"+s.Addr()+"/healthz")
	}
	<-done
	if s.Updates() != 200 {
		t.Fatalf("updates = %d", s.Updates())
	}
}
