package weblog

import "time"

// maxZoneMinutes bounds the zone offsets parseCLFTime decodes itself:
// ±14:59, which covers every offset in use (−12:00 to +14:00). Larger
// offsets time.Parse still accepts go to it.
const maxZoneMinutes = 14*60 + 59

// two decodes the two ASCII digits at s[i:i+2], or returns -1.
func two(s string, i int) int {
	a, b := s[i]-'0', s[i+1]-'0'
	if a > 9 || b > 9 {
		return -1
	}
	return int(a)*10 + int(b)
}

// clfMonth decodes a month abbreviation in its canonical case, or
// returns 0 (time.Parse also takes other cases; it gets those).
func clfMonth(s string) int {
	switch s {
	case "Jan":
		return 1
	case "Feb":
		return 2
	case "Mar":
		return 3
	case "Apr":
		return 4
	case "May":
		return 5
	case "Jun":
		return 6
	case "Jul":
		return 7
	case "Aug":
		return 8
	case "Sep":
		return 9
	case "Oct":
		return 10
	case "Nov":
		return 11
	case "Dec":
		return 12
	}
	return 0
}

// daysIn returns the length of a month in the proleptic Gregorian
// calendar.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// daysSinceEpoch returns the days from 1970-01-01 to a valid civil
// date (Hinnant's days_from_civil).
func daysSinceEpoch(year, month, day int) int64 {
	y := int64(year)
	if month <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400
	mp := int64(month+9) % 12
	doy := (153*mp+2)/5 + int64(day) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// parseCLFTime decodes a CLF timestamp in the exact fixed layout
// "02/Jan/2006:15:04:05 -0700", returning what time.Parse(clfTime, s)
// returns: the instant in time.Local when Local's offset at that
// instant equals the written one, else in an unnamed fixed zone. It
// reports false for anything it does not fully validate — other
// lengths, non-digits, other month spellings, out-of-range fields,
// offsets beyond ±14:59 — and the caller falls back to time.Parse,
// which accepts or rejects it with its own error text.
//
// Per record: it must not allocate for a zone matching Local or a
// whole-hour offset (DESIGN.md §13).
//
//hot:path
func parseCLFTime(s string) (time.Time, bool) {
	if len(s) != len(clfTime) || s[2] != '/' || s[6] != '/' || s[11] != ':' ||
		s[14] != ':' || s[17] != ':' || s[20] != ' ' {
		return time.Time{}, false
	}
	day, month := two(s, 0), clfMonth(s[3:6])
	yh, yl := two(s, 7), two(s, 9)
	hour, minute, sec := two(s, 12), two(s, 15), two(s, 18)
	zh, zm := two(s, 22), two(s, 24)
	if day < 1 || month == 0 || yh < 0 || yl < 0 || hour < 0 || hour > 23 ||
		minute < 0 || minute > 59 || sec < 0 || sec > 59 || zh < 0 || zm < 0 || zm > 59 {
		return time.Time{}, false
	}
	year := yh*100 + yl
	if day > daysIn(month, year) {
		return time.Time{}, false
	}
	offMin := zh*60 + zm
	switch s[21] {
	case '+':
	case '-':
		offMin = -offMin
	default:
		return time.Time{}, false
	}
	if offMin < -maxZoneMinutes || offMin > maxZoneMinutes {
		return time.Time{}, false
	}
	unix := daysSinceEpoch(year, month, day)*86400 + int64(hour*3600+minute*60+sec) - int64(offMin*60)
	t := time.Unix(unix, 0)
	if _, off := t.Zone(); off == offMin*60 {
		return t, true
	}
	// Whole-hour offsets share the standard library's cached zones; an
	// off-the-hour one allocates a zone, as time.Parse does.
	return t.In(time.FixedZone("", offMin*60)), true
}
