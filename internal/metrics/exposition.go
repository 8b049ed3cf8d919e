package metrics

import (
	"bufio"
	"strconv"
	"strings"
)

// This file is the read side of the text exposition format: the scraper
// counterpart of ServeHTTP. `pprox-ops audit` consumes it, and its
// tests round-trip the render side through it so both ends
// agree on the edge cases (escaped label values, NaN/Inf samples, empty
// families).

// ScrapeSet maps a full series identity — family name plus suffix plus
// rendered label block, exactly as exposed — to its sampled value.
type ScrapeSet map[string]float64

// ParseExposition parses Prometheus text-format lines into a ScrapeSet.
// Comment (#) and blank lines are skipped; malformed lines are dropped
// rather than failing the scrape, matching scraper convention. The value
// separator is found *after* the label block, so label values containing
// spaces survive.
func ParseExposition(body string) ScrapeSet {
	out := make(ScrapeSet)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := splitSeriesValue(line)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		out[series] = v
	}
	return out
}

// splitSeriesValue splits a sample line into its series identity and
// value token. A space inside a quoted label value is not a separator,
// so the label block is walked with escape awareness instead of cutting
// at the last space (a trailing timestamp, which this registry never
// emits, would also defeat that shortcut).
func splitSeriesValue(line string) (series, value string, ok bool) {
	end := strings.IndexByte(line, '{')
	if end >= 0 {
		close := labelBlockEnd(line, end)
		if close < 0 {
			return "", "", false
		}
		rest := strings.TrimSpace(line[close+1:])
		// A timestamp after the value is allowed by the format; take the
		// first token only.
		if sp := strings.IndexByte(rest, ' '); sp >= 0 {
			rest = rest[:sp]
		}
		return line[:close+1], rest, rest != ""
	}
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return "", "", false
	}
	fields := strings.Fields(line[sp:])
	if len(fields) == 0 {
		return "", "", false
	}
	return line[:sp], fields[0], true
}

// labelBlockEnd returns the index of the '}' closing the label block
// opened at open, honoring quoted values and backslash escapes, or -1.
func labelBlockEnd(line string, open int) int {
	inQuotes := false
	for i := open + 1; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuotes {
				i++ // skip the escaped character
			}
		case '"':
			inQuotes = !inQuotes
		case '}':
			if !inQuotes {
				return i
			}
		}
	}
	return -1
}

// ParseSeries decomposes a series identity like `name{a="x",b="y"}` into
// its name and label map, unescaping label values (backslash, quote,
// newline — the inverse of escapeLabel). Series without labels return an
// empty, non-nil map.
func ParseSeries(series string) (name string, labels map[string]string) {
	labels = make(map[string]string)
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return series, labels
	}
	name = series[:open]
	body := series[open+1:]
	if i := strings.LastIndexByte(body, '}'); i >= 0 {
		body = body[:i]
	}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			break
		}
		key := strings.TrimPrefix(strings.TrimSpace(body[:eq]), ",")
		key = strings.TrimSpace(key)
		val, rest, ok := scanQuoted(body[eq+1:])
		if !ok {
			break
		}
		labels[key] = val
		body = rest
	}
	return name, labels
}

// scanQuoted consumes a leading quoted string, returning its unescaped
// content and the remainder after the closing quote.
func scanQuoted(s string) (val, rest string, ok bool) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", false
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", false
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default: // \\ and \" pass through; unknown escapes literal
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], true
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", false
}
