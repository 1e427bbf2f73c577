let internal x = x + 1
let dead x = internal x
let opened x = x * 2
let tested x = x - 1
