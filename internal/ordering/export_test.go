package ordering

// RefAMD is the preserved reference AMD, exposed to the package's external
// tests: they import corpus, which imports this package.
var RefAMD = refAMD
