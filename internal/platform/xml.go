package platform

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"smpigo/internal/core"
)

// The XML schema follows the spirit of SimGrid's platform DTD: a <platform>
// root holding one spec element per target machine. The <cluster> element
// is the hierarchical cluster the paper's evaluation uses:
//
//	<platform version="1">
//	  <cluster id="griffon" speed="1Gf" cabinets="33,27,32"
//	           bw="1Gbps" lat="20us"
//	           uplink_bw="10Gbps" uplink_lat="4us"
//	           bb_bw="10Gbps" bb_lat="2us" bb_sharing="FATPIPE"/>
//	</platform>
//
// Additional elements (<fattree>, <torus>, <dragonfly>, ...) are registered
// by the packages that define them via RegisterXMLSpec, so the dialect is
// open: ReadXML decodes any element a Spec implementation has claimed.

// Spec describes a buildable platform: a cluster description or a generated
// interconnect topology. Implementations are plain value types that can be
// validated and instantiated; those registered with RegisterXMLSpec also
// round-trip through the XML dialect.
type Spec interface {
	// Validate reports the first structural problem with the spec, if any.
	Validate() error
	// Build instantiates the platform.
	Build() (*Platform, error)
}

// xmlElement is one registered element of the dialect: its spec type's bind
// function, wrapped to decode a fresh spec or to encode a given one (write
// reports false for a spec of another type).
type xmlElement struct {
	read  func(*XMLBinder) Spec
	write func(Spec, *XMLBinder) bool
}

// xmlElements maps element names to their bind functions; populated at init
// time by RegisterXMLSpec, read-only afterwards.
var xmlElements = map[string]xmlElement{}

// RegisterXMLSpec registers a platform-file element and the one function
// that lists its attributes: bind calls one XMLBinder method per attribute,
// in document order, and WriteXML and ReadXML both walk it. It is meant to
// be called from init functions of spec-defining packages; registering the
// same element twice panics.
func RegisterXMLSpec[S Spec](element string, bind func(*S, *XMLBinder)) {
	if _, dup := xmlElements[element]; dup {
		panic(fmt.Sprintf("platform: xml element %q registered twice", element))
	}
	xmlElements[element] = xmlElement{
		read: func(b *XMLBinder) Spec {
			var s S
			bind(&s, b)
			return s
		},
		write: func(spec Spec, b *XMLBinder) bool {
			s, ok := spec.(S)
			if ok {
				bind(&s, b)
			}
			return ok
		},
	}
}

// XMLBinder is the visitor a spec's bind function walks, one method per
// attribute kind. Writing, each call formats its field as the attribute's
// value. Reading, each call consumes the attribute and parses it into its
// field, and the first failure is kept as `<element> "<id>": attribute
// <name>: <cause>`; an attribute no call consumed fails the element too.
type XMLBinder struct {
	element string
	id      string            // the element's id attribute, for errors
	in      map[string]string // the element's unconsumed attributes when reading; nil when writing
	out     []xml.Attr
	err     error
}

// attr binds one attribute: format renders the field when writing, parse
// stores the attribute's value into it when reading.
func (b *XMLBinder) attr(name string, format func() string, parse func(string) error) {
	if b.in == nil {
		b.out = append(b.out, xml.Attr{Name: xml.Name{Local: name}, Value: format()})
		return
	}
	v := b.in[name]
	delete(b.in, name)
	if err := parse(v); err != nil && b.err == nil {
		b.err = fmt.Errorf("%s %q: attribute %s: %w", b.element, b.id, name, err)
	}
}

// Text binds a string, verbatim.
func (b *XMLBinder) Text(name string, v *string) {
	b.attr(name, func() string { return *v }, func(s string) error { *v = s; return nil })
}

// Flops binds a compute speed, written in flop/s ("1e+09f").
func (b *XMLBinder) Flops(name string, v *float64) {
	b.attr(name, func() string { return fmt.Sprintf("%gf", *v) },
		func(s string) (err error) { *v, err = core.ParseFlops(s); return err })
}

// Rate binds a bandwidth, written in bytes/s ("1.25e+08Bps").
func (b *XMLBinder) Rate(name string, v *float64) {
	b.attr(name, func() string { return fmt.Sprintf("%gBps", *v) },
		func(s string) (err error) { *v, err = core.ParseRate(s); return err })
}

// Duration binds a latency, written in seconds ("2e-06s").
func (b *XMLBinder) Duration(name string, v *core.Duration) {
	b.attr(name, func() string { return fmt.Sprintf("%gs", float64(*v)) },
		func(s string) (err error) { *v, err = core.ParseDuration(s); return err })
}

// Int binds an integer, parsed untrimmed.
func (b *XMLBinder) Int(name string, v *int) {
	b.attr(name, func() string { return strconv.Itoa(*v) },
		func(s string) (err error) { *v, err = strconv.Atoi(s); return err })
}

// Ints binds a list of integers joined by sep; entries are trimmed.
func (b *XMLBinder) Ints(name string, v *[]int, sep string) {
	b.attr(name, func() string { return joinList(*v, sep, strconv.Itoa) },
		func(s string) (err error) { *v, err = parseList(s, sep, strconv.Atoi); return err })
}

// sharing binds a link sharing policy: FATPIPE when *fatPipe, SHARED
// otherwise. Reading ignores case and surrounding space, and an absent
// attribute reads as SHARED.
func (b *XMLBinder) sharing(name string, fatPipe *bool) {
	b.attr(name, func() string {
		if *fatPipe {
			return "FATPIPE"
		}
		return "SHARED"
	}, func(s string) error {
		switch strings.ToUpper(strings.TrimSpace(s)) {
		case "", "SHARED":
			*fatPipe = false
		case "FATPIPE":
			*fatPipe = true
		default:
			return fmt.Errorf("unknown policy %q", s)
		}
		return nil
	})
}

// parseList splits s at sep and parses each trimmed entry.
func parseList[T any](s, sep string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, sep) {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// joinList renders vs with format, joined by sep: the inverse of parseList.
func joinList[T any](vs []T, sep string, format func(T) string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = format(v)
	}
	return strings.Join(parts, sep)
}

// startElement renders a spec as its registered element.
func startElement(s Spec) (xml.StartElement, error) {
	for name, e := range xmlElements {
		var b XMLBinder
		if e.write(s, &b) {
			return xml.StartElement{Name: xml.Name{Local: name}, Attr: b.out}, nil
		}
	}
	return xml.StartElement{}, fmt.Errorf("platform xml: no element registered for %T", s)
}

// WriteXML serializes one or more specs as a platform file.
func WriteXML(w io.Writer, specs ...Spec) error {
	els := make([]xml.StartElement, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
		var err error
		if els[i], err = startElement(s); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	root := xml.StartElement{
		Name: xml.Name{Local: "platform"},
		Attr: []xml.Attr{{Name: xml.Name{Local: "version"}, Value: "1"}},
	}
	if err := enc.EncodeToken(root); err != nil {
		return err
	}
	for _, el := range els {
		if err := enc.EncodeToken(el); err != nil {
			return err
		}
		if err := enc.EncodeToken(el.End()); err != nil {
			return err
		}
	}
	if err := enc.EncodeToken(root.End()); err != nil {
		return err
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// ReadXML parses a platform file and returns the specs it declares, in
// document order. Elements are decoded through the RegisterXMLSpec registry,
// so topology elements are only recognized when their defining package is
// linked in. The root takes no attribute but version="1", a spec element
// holds no child element, and no element follows </platform>.
func ReadXML(r io.Reader) ([]Spec, error) {
	dec := xml.NewDecoder(r)
	var specs []Spec
	sawRoot, closed := false, false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("platform xml: %w", err)
		}
		if _, end := tok.(xml.EndElement); end {
			// Spec elements are read to their end below: this is </platform>.
			closed = true
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		if closed {
			return nil, fmt.Errorf("platform xml: element <%s> after </platform>", start.Name.Local)
		}
		if !sawRoot {
			if start.Name.Local != "platform" {
				return nil, fmt.Errorf("platform xml: root element is <%s>, want <platform>", start.Name.Local)
			}
			for _, a := range start.Attr {
				if a.Name.Space != "" || a.Name.Local != "version" || a.Value != "1" {
					return nil, fmt.Errorf("platform xml: <platform> attribute %s=%q, want only version=\"1\"", a.Name.Local, a.Value)
				}
			}
			sawRoot = true
			continue
		}
		e, ok := xmlElements[start.Name.Local]
		if !ok {
			return nil, fmt.Errorf("platform xml: unknown element <%s>", start.Name.Local)
		}
		b := XMLBinder{element: start.Name.Local, in: make(map[string]string, len(start.Attr))}
		for _, a := range start.Attr {
			b.in[a.Name.Local] = a.Value
		}
		b.id = b.in["id"]
		spec := e.read(&b)
		// A misspelt attribute leaves its spelled-right twin unset; name
		// the misspelling, not the gap it leaves.
		for _, a := range start.Attr {
			if _, unread := b.in[a.Name.Local]; unread {
				return nil, fmt.Errorf("%s %q: unknown attribute %s", b.element, b.id, a.Name.Local)
			}
		}
		if b.err != nil {
			return nil, b.err
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
		if err := b.readEnd(dec); err != nil {
			return nil, err
		}
	}
	if !sawRoot {
		return nil, fmt.Errorf("platform xml: no <platform> element")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("platform xml: no spec element inside <platform>")
	}
	return specs, nil
}

// readEnd consumes a spec element up to its end tag, refusing any child
// element: every setting of a spec is an attribute.
func (b *XMLBinder) readEnd(dec *xml.Decoder) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("platform xml: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return fmt.Errorf("%s %q: unexpected child element <%s>", b.element, b.id, t.Name.Local)
		case xml.EndElement:
			return nil
		}
	}
}
