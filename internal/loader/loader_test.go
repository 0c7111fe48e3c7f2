package loader

import (
	"testing"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/sampler"
)

func testPlan(t *testing.T) *access.Plan {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "l", NumSamples: 200, MeanSize: 1024, Classes: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(ds, sampler.Config{WorldSize: 2, BatchSize: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := access.Build(s, 0, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestCatalogSpecsValidate(t *testing.T) {
	const gpus, threads = 8, 24
	specs := []Spec{
		PyTorch(gpus, threads),
		DALI(threads),
		NoPFS(gpus, threads),
		Lobster(),
		LobsterTh(),
		LobsterEvict(gpus, threads),
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(gpus, threads); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		names[s.Name] = true
	}
	if got := ComparedStrategies(); len(got) != 4 || got[0] != "pytorch" {
		t.Errorf("ComparedStrategies = %v, want the paper's four systems, PyTorch first", got)
	}
}

func TestStrategyByName(t *testing.T) {
	for _, name := range Strategies() {
		spec, err := StrategyByName(name, 8, 24)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name != name {
			t.Fatalf("spec name %q for %q", spec.Name, name)
		}
		if err := spec.Validate(8, 24); err != nil {
			t.Fatalf("%s: invalid spec: %v", name, err)
		}
	}
	if _, err := StrategyByName("magic", 8, 24); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := []Spec{
		{Name: "", Mode: ThreadsStatic, PreprocThreads: 1, LoadingPerGPU: 1},
		{Name: "x", PrefetchDepth: -1, Mode: ThreadsStatic, PreprocThreads: 1, LoadingPerGPU: 1},
		{Name: "x", Mode: ThreadsStatic, PreprocThreads: 0, LoadingPerGPU: 1},
		{Name: "x", Mode: ThreadsStatic, PreprocThreads: 20, LoadingPerGPU: 2}, // 20+16 > 24
		{Name: "x", Mode: ThreadsSharedPool, PreprocThreads: 1, SharedLoading: 0},
		{Name: "x", Mode: ThreadsSharedPool, PreprocThreads: 24, SharedLoading: 4},
		{Name: "x", Mode: ThreadMode(99)},
	}
	for _, s := range bad {
		if err := s.Validate(8, 24); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

func TestBuildPolicyKinds(t *testing.T) {
	plan := testPlan(t)
	cases := map[PolicyKind]string{
		PolicyPageCache:  "page-cache",
		PolicyLRU:        "lru",
		PolicyFIFO:       "fifo",
		PolicyNeverEvict: "never-evict",
		PolicyNoPFS:      "nopfs",
		PolicyBelady:     "belady",
		PolicyLobster:    "lobster",
	}
	for kind, want := range cases {
		spec := Spec{Name: "t", Policy: kind}
		p := spec.BuildPolicy(plan, nil)
		if p.Name() != want {
			t.Errorf("kind %d built %q, want %q", kind, p.Name(), want)
		}
	}
}

func TestBuildPolicyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy kind did not panic")
		}
	}()
	Spec{Policy: PolicyKind(99)}.BuildPolicy(testPlan(t), nil)
}

func TestStrategyRoles(t *testing.T) {
	if PyTorch(8, 24).PrefetchDepth != 0 {
		t.Error("PyTorch must be demand-only")
	}
	if NoPFS(8, 24).PrefetchDepth < 8 {
		t.Error("NoPFS must prefetch deep")
	}
	if Lobster().Mode != ThreadsDynamic {
		t.Error("Lobster must use dynamic thread management")
	}
	if LobsterTh().Policy == PolicyLobster {
		t.Error("lobster_th must exclude the reuse-based eviction")
	}
	if LobsterEvict(8, 24).Mode == ThreadsDynamic {
		t.Error("lobster_evict must exclude dynamic thread management")
	}
	if DALI(24).Mode != ThreadsSharedPool {
		t.Error("DALI uses a shared loading pool")
	}
	// Tight budgets must still produce valid specs.
	if err := DALI(4).Validate(2, 4); err != nil {
		t.Errorf("DALI with tiny budget: %v", err)
	}
	if err := PyTorch(2, 4).Validate(2, 4); err != nil {
		t.Errorf("PyTorch with tiny budget: %v", err)
	}
}
