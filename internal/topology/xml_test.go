package topology

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smpigo/internal/platform"
)

var updateDialect = flag.Bool("update", false, "rewrite testdata/dialect.golden from this build")

// dialectSpecs is every spec the platform dialect can carry, once: the two
// paper clusters, every topology preset, and one heterogeneous spec per
// element with every optional profile attribute set.
func dialectSpecs(tb testing.TB) []platform.Spec {
	tb.Helper()
	specs := []platform.Spec{platform.Griffon(), platform.Gdx()}
	for _, name := range presetNames() {
		s, err := ParseSpec(name)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, s)
	}
	cl := platform.Griffon()
	cl.Name = "griffon-mixed"
	cl.CabinetSpeed = []float64{1, 0.5, 1.25}
	cl.CabinetUplinkWidth = []float64{0.1, 1, 2.5e-7}
	ft := fatTree64()
	ft.Name = "fattree64-mixed"
	ft.LevelWidths, ft.LeafSpeeds = []float64{1, 1, 0.5}, []float64{1, 0.3333333333333333}
	to := torus64()
	to.Name = "torus64-mixed"
	to.DimWidths, to.RowSpeeds = []float64{1, 1, 0.25}, []float64{2}
	df := dragonfly72()
	df.Name = "dragonfly72-mixed"
	df.GroupSpeeds, df.GroupWidths = []float64{1, 0.5}, []float64{1, 0.5, 0.75}
	return append(specs, cl, ft, to, df)
}

// TestDialectGolden pins the bytes WriteXML emits for every element and
// attribute of the dialect, optional profiles included, and checks that the
// file reads back to the same specs. Regenerate with -update only when the
// dialect is meant to move.
func TestDialectGolden(t *testing.T) {
	specs := dialectSpecs(t)
	var buf bytes.Buffer
	if err := platform.WriteXML(&buf, specs...); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "dialect.golden")
	if *updateDialect {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteXML drifted from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	back, err := platform.ReadXML(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, specs) {
		t.Errorf("%s reads back as\n%+v\nwant\n%+v", golden, back, specs)
	}
}

// FuzzReadXML feeds arbitrary bytes to the platform reader: no input
// panics, and every spec list it accepts writes, reads back equal, and
// writes the same bytes again.
func FuzzReadXML(f *testing.F) {
	for _, s := range dialectSpecs(f) {
		var buf bytes.Buffer
		if err := platform.WriteXML(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, bad := range []string{
		"<platform version='1'/>",
		"not xml",
		"<platform version='1'><wat/></platform>",
		`<platform version="1"><cluster id="x" speed="zzz" cabinets="4" bw="1Gbps" lat="1us" uplink_bw="1Gbps" uplink_lat="1us" bb_bw="1Gbps" bb_lat="1us"/></platform>`,
		`<platform version="1"><cluster id="x" speed="1Gf" cabinets="4" bw="1Gbps" lat="1us" uplink_bw="1Gbps" uplink_lat="1us" bb_bw="1Gbps" bb_lat="1us" bb_sharing="WAT"/></platform>`,
	} {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := platform.ReadXML(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := platform.WriteXML(&first, specs...); err != nil {
			t.Fatalf("accepted specs do not write: %v", err)
		}
		back, err := platform.ReadXML(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written specs do not read back: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, specs) {
			t.Fatalf("read back as\n%+v\nwant\n%+v", back, specs)
		}
		if err := platform.WriteXML(&second, back...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
