package core

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"qed2/internal/obs"
)

// TestStampBytes pins the stamp bytes of the configurations persisted
// artifacts carry. qed2d's default stamp names its store directory, so it
// must never change; the qed2bench golden, no-rules and smt-only stamps are
// the bytes headers carried before stamps applied defaults, except that
// slice_radius now reads 2 where it read 0.
func TestStampBytes(t *testing.T) {
	golden := Config{QuerySteps: 20_000, GlobalSteps: 400_000, Timeout: 120 * time.Second, Seed: 1, Workers: 1}
	noRules := golden
	noRules.DisableSolveRule, noRules.DisableBitsRule = true, true
	smtOnly := golden
	smtOnly.Mode = ModeSMTOnly
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"qed2d defaults", Config{Mode: ModeFull, SliceRadius: 2, QuerySteps: 50_000, GlobalSteps: 5_000_000},
			`{"mode":"qed2","slice_radius":2,"query_steps":50000,"global_steps":5000000,"seed":0}`},
		{"qed2bench golden", golden,
			`{"mode":"qed2","slice_radius":2,"query_steps":20000,"global_steps":400000,"seed":1}`},
		{"no rules", noRules,
			`{"mode":"qed2","slice_radius":2,"query_steps":20000,"global_steps":400000,"seed":1,"no_solve_rule":true,"no_bits_rule":true}`},
		{"smt-only", smtOnly,
			`{"mode":"smt-only","slice_radius":2,"query_steps":20000,"global_steps":400000,"seed":1}`},
	} {
		if got := tc.cfg.Stamp(); got != tc.want {
			t.Errorf("%s: stamp %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestStampIgnoresNonVerdictFields: workers, the timeout and the observer
// hooks never change a verdict, so they never change the stamp; neither
// does spelling out the defaults.
func TestStampIgnoresNonVerdictFields(t *testing.T) {
	var zero Config
	want := zero.Stamp()
	if got := (*Config)(nil).Stamp(); got != want {
		t.Errorf("nil config stamp %s, want %s", got, want)
	}
	explicit := Config{SliceRadius: defaultSliceRadius, QuerySteps: defaultQuerySteps, GlobalSteps: defaultGlobalSteps}
	if got := explicit.Stamp(); got != want {
		t.Errorf("explicit defaults stamp %s, want %s", got, want)
	}
	tr := obs.New(io.Discard)
	hooked := Config{
		Workers:   7,
		Timeout:   time.Second,
		Obs:       tr,
		ObsParent: tr.Start(nil, "parent"),
		Metrics:   obs.NewMetrics(),
		Progress:  func(ProgressEvent) {},
	}
	if got := hooked.Stamp(); got != want {
		t.Errorf("workers/timeout/hooks changed the stamp: %s, want %s", got, want)
	}
}

// stampExempt lists the Config fields the stamp deliberately leaves out.
var stampExempt = map[string]bool{
	"Workers": true, "Timeout": true, "Obs": true, "ObsParent": true, "Metrics": true, "Progress": true,
}

// TestStampCoversEveryOtherField walks Config by reflection: changing any
// exported field outside stampExempt must change the stamp, so a new field
// that affects verdicts cannot be left out of it unnoticed. A field of a
// kind this walk cannot perturb fails the test until it is handled here.
func TestStampCoversEveryOtherField(t *testing.T) {
	base := (&Config{}).Canonical()
	want := base.Stamp()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || stampExempt[f.Name] {
			continue
		}
		cfg := base
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Errorf("field %s: kind %s not perturbed by this test — extend it, or exempt the field if it never changes a verdict", f.Name, v.Kind())
			continue
		}
		if got := cfg.Stamp(); got == want {
			t.Errorf("changing %s leaves the stamp at %s", f.Name, got)
		}
	}
}

func TestModeText(t *testing.T) {
	for _, m := range []Mode{ModeFull, ModePropagationOnly, ModeSMTOnly} {
		b, err := m.MarshalText()
		if err != nil || string(b) != m.String() {
			t.Fatalf("%v.MarshalText() = %q, %v", m, b, err)
		}
		var back Mode
		if err := back.UnmarshalText(b); err != nil || back != m {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", b, back, err, m)
		}
	}
	for alias, want := range map[string]Mode{"propagation": ModePropagationOnly, "smt": ModeSMTOnly} {
		var m Mode
		if err := m.UnmarshalText([]byte(alias)); err != nil || m != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", alias, m, err, want)
		}
	}
	for _, bad := range []string{"warp", "", "QED2", "Mode(7)"} {
		var m Mode
		if err := m.UnmarshalText([]byte(bad)); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("UnmarshalText(%q) error = %v, want unknown mode", bad, err)
		}
	}
}

// TestConfigWireRoundTrip: the JSON form carries every scalar field,
// workers and timeout included, and drops the hooks.
func TestConfigWireRoundTrip(t *testing.T) {
	cfg := Config{
		Mode: ModePropagationOnly, SliceRadius: 3, QuerySteps: 7, GlobalSteps: 9,
		Timeout: 1500 * time.Millisecond, Workers: 4, Seed: -2,
		DisableSolveRule: true, DisableBitsRule: true,
		Progress: func(ProgressEvent) {},
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	cfg.Progress = nil
	if !reflect.DeepEqual(back, cfg) {
		t.Fatalf("round trip %s gave %+v, want %+v", b, back, cfg)
	}
	if err := json.Unmarshal([]byte(`{"mode":"warp"}`), &back); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("unknown mode decoded: %v", err)
	}
}

func TestRegisterFlags(t *testing.T) {
	parse := func(args ...string) (Config, error) {
		var cfg Config
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg.RegisterFlags(fs)
		return cfg, fs.Parse(args)
	}
	cfg, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	// The flag defaults are the analysis defaults, spelled out.
	if cfg.SliceRadius != defaultSliceRadius || cfg.QuerySteps != defaultQuerySteps || cfg.GlobalSteps != defaultGlobalSteps ||
		cfg.Mode != ModeFull || cfg.Seed != 0 || cfg.Timeout != 0 {
		t.Fatalf("default flags gave %+v", cfg)
	}
	// qed2d names its store directory by this stamp.
	const qed2dStamp = `{"mode":"qed2","slice_radius":2,"query_steps":50000,"global_steps":5000000,"seed":0}`
	if got := cfg.Stamp(); got != qed2dStamp {
		t.Fatalf("default flags stamp %s, want %s", got, qed2dStamp)
	}
	cfg, err = parse("-mode", "smt", "-radius", "3", "-query-steps", "11", "-global-steps", "12", "-timeout", "2s", "-seed", "5")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Mode: ModeSMTOnly, SliceRadius: 3, QuerySteps: 11, GlobalSteps: 12, Timeout: 2 * time.Second, Seed: 5}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("flags gave %+v, want %+v", cfg, want)
	}
	if _, err := parse("-mode", "warp"); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("-mode warp error = %v, want unknown mode", err)
	}
}
