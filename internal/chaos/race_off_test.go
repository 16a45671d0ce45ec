//go:build !race

package chaos

const sweepSeeds = 104
