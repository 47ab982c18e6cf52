package session

import (
	"testing"
	"time"
)

func TestRetryDelayDoublesAndCaps(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		backoff time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 1, 5 * ms}, // zero selects 5 ms
		{0, 2, 10 * ms},
		{0, 3, 20 * ms},
		{3 * ms, 1, 3 * ms},
		{3 * ms, 4, 24 * ms},
		{100 * ms, 3, 400 * ms},
		{100 * ms, 4, 500 * ms}, // 800 ms capped
		{time.Second, 1, 500 * ms},
		{5 * ms, 70, 500 * ms}, // shifted out of range, not to zero or below
	}
	for _, tc := range cases {
		if got := (RetryPolicy{Backoff: tc.backoff}).retryDelay(tc.attempt); got != tc.want {
			t.Errorf("backoff %v, attempt %d: delay %v, want %v", tc.backoff, tc.attempt, got, tc.want)
		}
	}
}
