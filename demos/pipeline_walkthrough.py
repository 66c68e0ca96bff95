"""One question through the whole pipeline, step by step.

Runs completely offline: a ScriptedProvider plays the model, returning
canned completions keyed on pieces of each prompt. Swap it for a live
provider and nothing else changes.
"""

from fractions import Fraction

from abcd_eval import (
    ScriptRule,
    ScriptedProvider,
    Question,
    Dataset,
    decompose,
    default_pack_path,
    generate_answers,
    instantiate,
    load_prompt_pack,
    score_true,
    verify_all,
)

question = Question(
    id="demo-01",
    text=(
        "Which Italian astronomer improved the telescope and discovered "
        "the four largest moons of Jupiter?"
    ),
    gold_answer="Galileo Galilei",
    dataset=Dataset.CUSTOM,
)

# The scripted "model". First matching rule wins; the decomposition and
# answer rules key on prompt fragments, the verification rules on the
# exact instantiated claim.
DECOMPOSITION = """Step 1: The question asks "which astronomer", so the answer is an astronomer.
1. <answer> is an astronomer
2. <answer> is Italian
3. <answer> improved the telescope
4. <answer> discovered moons of a planet
Step 2: The planet whose moons were discovered is Jupiter, so it gets the tag <planet>.
Step 3:
1. <answer> is an astronomer
2. <answer> is Italian
3. <answer> improved the telescope
4. <answer> discovered the four largest moons of <planet>
"""

provider = ScriptedProvider([
    ScriptRule(match=f"Question: {question.text}\nStep 1:",
               response=DECOMPOSITION),
    ScriptRule(match=f"Question: {question.text}\n\n<answer>:",
               response="<answer>: Galileo Galilei\n<planet>: Jupiter"),
    ScriptRule(match="True or False: Galileo Galilei is an astronomer",
               response="True.", mode="exact"),
    ScriptRule(match="True or False: Galileo Galilei is Italian",
               response="True.", mode="exact"),
    ScriptRule(match="True or False: Galileo Galilei improved the telescope",
               response="True, he refined early Dutch designs.", mode="exact"),
    ScriptRule(
        match=(
            "True or False: Galileo Galilei discovered the four largest "
            "moons of Jupiter"
        ),
        response="As a language model I cannot be certain about that.",
        mode="exact",
    ),
])

# Step 1: decompose the question into tagged claim templates.
pack = load_prompt_pack(default_pack_path())
parsed = decompose(question, pack, provider)
claim_set = parsed.claim_set
print("claims:")
for number, claim in enumerate(claim_set.claims, start=1):
    print(f"  {number}. {claim.text}")
print("tags:", [tag.name for tag in claim_set.tags])

# Step 2: have the model fill every tag with a concrete answer.
assignment = generate_answers(question, claim_set, provider)
print("\nassignment:", assignment.as_dict())

# Step 3: instantiate and verify each claim with a True-or-False prompt.
results = verify_all(claim_set, assignment, provider)
print("\nverification:")
for claim, result in zip(claim_set.claims, results):
    text = instantiate(claim, assignment)
    print(f"  {text!r} -> {result.verdict.value}")

# Step 4: score. The first claim only states the entity type, so it is
# excluded; a non-response counts as false.
score = score_true([result.verdict for result in results])
print("\nscore_true:", score, f"(= {float(score):.3f})")
assert score == Fraction(2, 3)

# The gold answer can be re-verified through the same claims by overriding
# the <answer> slot (other tags keep their generated values).
gt_results = verify_all(
    claim_set, assignment, provider, override_answer=question.gold_answer
)
gt_score = score_true([result.verdict for result in gt_results])
print("score with gold answer:", gt_score)
