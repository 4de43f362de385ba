package dynamic

// Test fixtures shared with the external test package dynamic_test,
// whose tests serve this package's renderer through fleet.Edge, the
// production front door (fleet imports dynamic, so those tests cannot
// live in package dynamic itself).
var (
	SiteQuery = siteQuery
	TestData  = testData
	SlowQuery = slowQuery
	SlowData  = slowData
)
