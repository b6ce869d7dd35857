"""factforge: synthetic factual/unfactual text pairs and claim-level fact checking.

The pipeline runs in stages, each usable on its own:

  corpus        pages -> sentence windows (passages)
  synthgen      passage -> claims, a falsified claim, and paired
                factual/unfactual texts via one chat call
  dataset       records -> retriever pairs, NLI triplets, task instances
  retrieval     exact dense top-k search and the in-batch training loss
  verification  text -> per-claim verdicts via retrieval + NLI
  evalharness   prompt building, verdict parsing, benchmark metrics
  backends      chat / embedding / NLI transports plus deterministic mocks
  cli           one executable covering all of the above
"""

__version__ = "0.1.0"
