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
// paper clusters and every topology preset.
func dialectSpecs(tb testing.TB) []platform.Spec {
	tb.Helper()
	specs := []platform.Spec{platform.Griffon(), platform.Gdx()}
	for _, name := range PresetNames() {
		s, err := ParseSpec(name)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestDialectGolden pins the bytes WriteXML emits for every element and
// attribute of the dialect, and checks that the file reads back to the same
// specs. Regenerate with -update only when the
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

// unknownAttributes edits one attribute of a written spec's element: a
// misspelling per element, then each heterogeneity-profile attribute the
// dialect no longer binds, then what the dialect has no place for around
// the attributes (a root attribute, a child element, an element after the
// root). ReadXML must refuse each, naming it.
var unknownAttributes = []struct {
	spec     platform.Spec
	old, new string
	want     string
}{
	{platform.Griffon(), ` bb_sharing=`, ` bb_shring=`, `cluster "griffon": unknown attribute bb_shring`},
	{fatTree64(), ` lat=`, ` latency=`, `fattree "fattree64": unknown attribute latency`},
	{torus64(), ` dims=`, ` dim=`, `torus "torus64": unknown attribute dim`},
	{dragonfly72(), ` global_bw=`, ` global_bandwidth=`, `dragonfly "dragonfly72": unknown attribute global_bandwidth`},
	{platform.Griffon(), `"></cluster>`, `" cab_speed="1,0.5,2"></cluster>`, `cluster "griffon": unknown attribute cab_speed`},
	{platform.Griffon(), `"></cluster>`, `" cab_width="1,0.25,1"></cluster>`, `cluster "griffon": unknown attribute cab_width`},
	{fatTree64(), `"></fattree>`, `" level_widths="1,1,0.5"></fattree>`, `fattree "fattree64": unknown attribute level_widths`},
	{fatTree64(), `"></fattree>`, `" leaf_speeds="1,0.5"></fattree>`, `fattree "fattree64": unknown attribute leaf_speeds`},
	{torus64(), `"></torus>`, `" dim_widths="1,1,0.25"></torus>`, `torus "torus64": unknown attribute dim_widths`},
	{torus64(), `"></torus>`, `" row_speeds="2"></torus>`, `torus "torus64": unknown attribute row_speeds`},
	{dragonfly72(), `"></dragonfly>`, `" group_speeds="1,0.5"></dragonfly>`, `dragonfly "dragonfly72": unknown attribute group_speeds`},
	{dragonfly72(), `"></dragonfly>`, `" group_widths="1,0.5"></dragonfly>`, `dragonfly "dragonfly72": unknown attribute group_widths`},
	{platform.Griffon(), `<platform version="1">`, `<platform version="7">`, `platform xml: <platform> attribute version="7", want only version="1"`},
	{platform.Griffon(), `<platform version="1">`, `<platform version="1" vendor="x">`, `platform xml: <platform> attribute vendor="x", want only version="1"`},
	{platform.Griffon(), `"></cluster>`, `"><host id="ghost" speed="1f"/></cluster>`, `cluster "griffon": unexpected child element <host>`},
	{platform.Griffon(), `</platform>`, `</platform><cluster id="late"/>`, `platform xml: element <cluster> after </platform>`},
}

// editedFile writes spec as a platform file and replaces old with new in
// it, once.
func editedFile(tb testing.TB, spec platform.Spec, old, new string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := platform.WriteXML(&buf, spec); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(old)) {
		tb.Fatalf("%q is not in\n%s", old, buf.Bytes())
	}
	return bytes.Replace(buf.Bytes(), []byte(old), []byte(new), 1)
}

// TestReadXMLRefusesUnknownAttributes checks that ReadXML reads every
// attribute of an element or refuses the element: a misspelt or dropped
// attribute is never silently ignored.
func TestReadXMLRefusesUnknownAttributes(t *testing.T) {
	for _, c := range unknownAttributes {
		data := editedFile(t, c.spec, c.old, c.new)
		specs, err := platform.ReadXML(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: ReadXML accepted %+v", c.want, specs)
		} else if err.Error() != c.want {
			t.Errorf("ReadXML error %q, want %q", err, c.want)
		}
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
	for _, c := range unknownAttributes {
		f.Add(editedFile(f, c.spec, c.old, c.new))
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
