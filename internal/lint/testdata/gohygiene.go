// Fixture for the gohygiene analyzer.
package fixture

import "sync"

func addInside() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want "before the go statement"
		defer wg.Done()
	}()
	wg.Wait()
}

func addOutsideOK() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
