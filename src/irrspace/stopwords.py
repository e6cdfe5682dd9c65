"""The fixed English stopword list: ``corpus.tokenize``, and so
``build_matrix``, drops every token in ``DEFAULT_STOPWORDS`` before stemming."""

from __future__ import annotations

DEFAULT_STOPWORDS = frozenset("""
a about above across after again against all almost alone along already also
although always am among an and another any anybody anyone anything anywhere
are area around as ask at away back be became because become becomes been
before began behind being below best better between beyond both but by came
can cannot case certain certainly clear clearly come could did differ
different do does done down during each early either enough even evenly ever
every everybody everyone everything everywhere far few find finds first for
four from full fully further furthered furthering furthers gave general
generally get gets give given gives go going good got great greater greatest
had has have having he her here herself high higher highest him himself his
how however i if important in interest interested interesting interests into
is it its itself just keep keeps kind knew know known knows large largely
last later latest least less let lets like likely long longer longest made
make making man many may me member members men might more most mostly mr mrs
much must my myself necessary need needed needing needs never new newer
newest next no nobody non not nothing now nowhere number numbers of off often
old older oldest on once one only open opened opening opens or order ordered
ordering orders other others our out over part parted parting parts per
perhaps place places point pointed pointing points possible present presented
presenting presents problem problems put puts quite rather really right room
rooms said same saw say says second seconds see seem seemed seeming seems
sees several shall she should show showed showing shows side sides since
small smaller smallest so some somebody someone something somewhere state
states still such sure take taken than that the their them then there
therefore these they thing things think thinks this those though thought
thoughts three through thus to today together too took toward turn turned
turning turns two under until up upon us use used uses very want wanted
wanting wants was way ways we well wells went were what when where whether
which while who whole whose why will with within without work worked working
works would year years yet you young younger youngest your yours
""".split())

