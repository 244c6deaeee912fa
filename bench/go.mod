module phrasemine/bench

go 1.22

require phrasemine v0.0.0

replace phrasemine => ../
