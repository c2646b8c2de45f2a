// Package parallel stands in for the real etrain/internal/parallel, the
// fan-out layer ctxloop patrols.
package parallel

import "sync"

func fanOutBad(jobs []int) {
	for _, j := range jobs {
		go func() { // want `goroutine has no join or cancellation path`
			process(j) // want `goroutine closure captures loop variable j`
		}()
	}
}

func fanOutIndexed(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			process(i) // want `goroutine closure captures loop variable i`
		}()
	}
	wg.Wait()
}

func fanOutGood(jobs []int) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			process(j)
		}(j)
	}
	wg.Wait()
}

func channelJoined(jobs []int) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, j := range jobs {
			process(j)
		}
	}()
	<-done
}

// rangeJoined receives until its channel closes: ranging over a channel
// is a receive, so the goroutine has a join path.
func rangeJoined(next chan func()) {
	go func() {
		for loop := range next {
			loop()
		}
	}()
}

// rangeOverSlice ranges over a slice, which joins nothing.
func rangeOverSlice(jobs []int) {
	go func() { // want `goroutine has no join or cancellation path`
		for _, j := range jobs {
			process(j)
		}
	}()
}

func process(int) {}
