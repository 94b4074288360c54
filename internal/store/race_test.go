//go:build race

package store

// raceEnabled is set in a -race build, where sync.Pool drops what is put
// back at random: encoding/json's pooled encode state is then remade on
// some calls, so an encoder's warm allocation count is not zero.
const raceEnabled = true
