package core

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBytes parses a human-readable byte count such as "64KiB", "4MiB",
// "1500B" or a bare number. Binary suffixes (KiB/MiB/GiB) are powers of two;
// decimal suffixes (kB/MB/GB) are powers of ten, matching SimGrid's platform
// DTD conventions. A whole number of bytes ("1500", "1500B") parses exactly,
// also beyond 2^53 where a float64 would round it; a count that does not
// fit an int64, or is negative, is an error.
func ParseBytes(s string) (int64, error) {
	whole := strings.TrimSpace(s)
	if n := len(whole); n > 0 && (whole[n-1] == 'b' || whole[n-1] == 'B') {
		whole = whole[:n-1]
	}
	if n, err := strconv.ParseInt(whole, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("parse bytes %q: negative", s)
		}
		return n, nil
	}
	v, err := parseSuffixed(s, map[string]float64{
		"":    1,
		"b":   1,
		"kib": float64(KiB),
		"mib": float64(MiB),
		"gib": float64(GiB),
		"kb":  1e3,
		"mb":  1e6,
		"gb":  1e9,
	})
	if err != nil {
		return 0, fmt.Errorf("parse bytes %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("parse bytes %q: negative", s)
	}
	if !(v < 1<<63) {
		return 0, fmt.Errorf("parse bytes %q: out of range", s)
	}
	return int64(v), nil
}

// ParseRate parses a bandwidth such as "1Gbps", "125MBps" or a bare number
// of bytes per second, and returns bytes per second. "bps"-family suffixes
// are bits per second; "Bps"-family suffixes are bytes per second.
func ParseRate(s string) (float64, error) {
	// "Bps" (capital B) means bytes per second, "bps" means bits per
	// second; the distinction is case-sensitive so it is resolved here
	// before the case-insensitive prefix lookup.
	perByte := false
	if n := len(s); n >= 3 && s[n-2] == 'p' && s[n-1] == 's' {
		if s[n-3] == 'B' {
			perByte = true
		}
		s = s[:n-3] + "X" // placeholder suffix consumed by the table below
	}
	v, err := parseSuffixed(s, map[string]float64{
		"":   1,
		"x":  1,
		"kx": 1e3,
		"mx": 1e6,
		"gx": 1e9,
	})
	if err != nil {
		return 0, fmt.Errorf("parse rate %q: %w", s, err)
	}
	if !perByte && v != 0 && len(s) > 0 && s[len(s)-1] == 'X' {
		v /= 8
	}
	return v, nil
}

// ParseDuration parses a simulated duration such as "25us", "1.5ms", "2s"
// or a bare number of seconds.
func ParseDuration(s string) (Duration, error) {
	v, err := parseSuffixed(s, map[string]float64{
		"":   1,
		"s":  1,
		"ms": 1e-3,
		"us": 1e-6,
		"µs": 1e-6,
		"ns": 1e-9,
	})
	if err != nil {
		return 0, fmt.Errorf("parse duration %q: %w", s, err)
	}
	return Duration(v), nil
}

// ParseFlops parses a compute speed or amount such as "1Gf", "2.5Gf",
// "500Mf" or a bare number of flops.
func ParseFlops(s string) (float64, error) {
	v, err := parseSuffixed(s, map[string]float64{
		"":   1,
		"f":  1,
		"kf": 1e3,
		"mf": 1e6,
		"gf": 1e9,
		"tf": 1e12,
	})
	if err != nil {
		return 0, fmt.Errorf("parse flops %q: %w", s, err)
	}
	return v, nil
}

// parseSuffixed splits s into a float prefix and a unit suffix, looks the
// suffix up in units (keys compared case-sensitively first, then lowercase),
// and returns value*multiplier.
func parseSuffixed(s string, units map[string]float64) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			// Careful: "e" can be part of a suffix only if the tail still
			// parses; the loop below retries on parse failure.
			break
		}
		i--
	}
	// Try progressively shorter numeric prefixes so that values such as
	// "2e6f" and "100Mf" both parse.
	for j := i; j >= 1; j-- {
		num, err := strconv.ParseFloat(s[:j], 64)
		if err != nil {
			continue
		}
		suffix := s[j:]
		if m, ok := units[suffix]; ok {
			return num * m, nil
		}
		if m, ok := units[strings.ToLower(suffix)]; ok {
			return num * m, nil
		}
	}
	return 0, fmt.Errorf("unrecognized unit in %q", s)
}
