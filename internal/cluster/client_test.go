package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// lateReader answers every request at once and reads its body only when
// released, as an http.RoundTripper still writing a request body after
// the response arrived may.
type lateReader struct {
	release chan struct{}
	bodies  chan string
}

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	body := req.Body
	go func() {
		<-l.release
		b, _ := io.ReadAll(body)
		body.Close()
		l.bodies <- string(b)
	}()
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: req}, nil
}

// TestDoBodyOutlivesCall: a request body the transport reads after do
// returned still holds that request's bytes, though later calls have
// encoded their own bodies meanwhile.
func TestDoBodyOutlivesCall(t *testing.T) {
	for i := 0; i < 20; i++ {
		rt := &lateReader{release: make(chan struct{}), bodies: make(chan string, 2)}
		c := &client{hc: &http.Client{Transport: rt}}
		b := newBackend("stub")
		first := map[string]string{"name": "first-" + strings.Repeat("a", 200)}
		if err := c.do(context.Background(), b, "POST", "/v1/records", first, nil); err != nil {
			t.Fatal(err)
		}
		second := map[string]string{"name": "other-" + strings.Repeat("b", 200)}
		if err := c.do(context.Background(), b, "POST", "/v1/records", second, nil); err != nil {
			t.Fatal(err)
		}
		close(rt.release)
		got := []string{<-rt.bodies, <-rt.bodies}
		want := `{"name":"first-` + strings.Repeat("a", 200) + `"}` + "\n"
		if got[0] != want && got[1] != want {
			t.Fatalf("round %d: the first request's body arrived as %.40q and %.40q, want %.40q", i, got[0], got[1], want)
		}
	}
}
