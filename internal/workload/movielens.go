package workload

import (
	"math/rand"
	"strconv"
)

// The paper's experimental workload is the MovieLens ml-20m dataset
// restricted to 2014–2015: "562,888 ratings for 17,141 different movies
// made by 7,288 different users" (§8). The real dataset is not
// redistributable with this repository, so Generate produces a
// deterministic synthetic event stream with the same cardinalities and the
// heavy-tailed popularity structure of movie ratings (see DESIGN.md §1:
// the evaluation exercises the (user, item) stream's shape, never the
// rating semantics).
const (
	// MovieLensUsers is the distinct-user count of the paper's slice.
	MovieLensUsers = 7288
	// MovieLensItems is the distinct-movie count of the paper's slice.
	MovieLensItems = 17141
	// MovieLensEvents is the rating count of the paper's slice.
	MovieLensEvents = 562888
)

// Event is one feedback interaction of the workload.
type Event struct {
	User string
	Item string
	// Rating is the optional payload carried by post(u, i[, p]).
	Rating string
}

// Dataset is a synthetic event stream.
type Dataset struct {
	Events []Event
	Users  int
	Items  int
}

// Params control dataset generation.
type Params struct {
	Users  int
	Items  int
	Events int
	// ItemSkew is the Zipf exponent of item popularity (> 1); movie
	// ratings are strongly skewed, ≈ 1.1.
	ItemSkew float64
	// UserSkew is the Zipf exponent of per-user activity (> 1).
	UserSkew float64
	Seed     int64
}

// MovieLensParams returns the full-size paper workload.
func MovieLensParams() Params {
	return Params{
		Users:    MovieLensUsers,
		Items:    MovieLensItems,
		Events:   MovieLensEvents,
		ItemSkew: 1.1,
		UserSkew: 1.2,
		Seed:     2021, // the paper's publication year; any fixed seed does
	}
}

// ScaledMovieLensParams returns the paper workload scaled down by factor
// (e.g. 0.01 for quick tests), keeping the skew structure.
func ScaledMovieLensParams(factor float64) Params {
	p := MovieLensParams()
	scale := func(n int) int {
		s := int(float64(n) * factor)
		if s < 1 {
			s = 1
		}
		return s
	}
	p.Users = scale(p.Users)
	p.Items = scale(p.Items)
	p.Events = scale(p.Events)
	return p
}

// Generate builds the synthetic dataset. It is deterministic in
// Params.Seed.
func Generate(p Params) *Dataset {
	rng := rand.New(rand.NewSource(p.Seed))
	itemZipf := rand.NewZipf(rng, p.ItemSkew, 1, uint64(p.Items-1))
	userZipf := rand.NewZipf(rng, p.UserSkew, 1, uint64(p.Users-1))

	events := make([]Event, p.Events)
	for i := range events {
		u := int(userZipf.Uint64())
		it := int(itemZipf.Uint64())
		events[i] = Event{
			User:   UserID(u),
			Item:   ItemID(it),
			Rating: ratings[rng.Intn(len(ratings))],
		}
	}
	return &Dataset{Events: events, Users: p.Users, Items: p.Items}
}

// ratings are the ten ratings a synthetic event carries, 0.5 to 5.0 in
// half-star steps, written with one decimal.
var ratings = [10]string{"0.5", "1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0", "4.5", "5.0"}

// UserID names the i-th synthetic user: "ml-user-" and i, zero-padded to
// five digits.
func UserID(i int) string { return paddedID("ml-user-", i, 5) }

// ItemID names the i-th synthetic movie: "ml-movie-" and i, zero-padded
// to six digits.
func ItemID(i int) string { return paddedID("ml-movie-", i, 6) }

// paddedID is prefix followed by i zero-padded to width characters, the
// sign included — what fmt's %0*d writes.
func paddedID(prefix string, i, width int) string {
	var buf [40]byte
	var num [20]byte
	b := append(buf[:0], prefix...)
	digits := strconv.AppendInt(num[:0], int64(i), 10)
	if i < 0 {
		b = append(b, '-')
		digits, width = digits[1:], width-1
	}
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, digits...))
}

// DistinctUsers returns the distinct users appearing in the event stream,
// in first-appearance order — the population the get-phase draws from.
func (d *Dataset) DistinctUsers() []string {
	seen := make(map[string]bool, d.Users)
	var users []string
	for _, ev := range d.Events {
		if !seen[ev.User] {
			seen[ev.User] = true
			users = append(users, ev.User)
		}
	}
	return users
}
