"""Prompt rendering tour
=======================

How a transfer request becomes a discrete natural-language prompt: the four
template phrasings, the ten delimiter pairs, few-shot exemplar blocks, and
recovering the completion from raw model output.
"""

from restyle import (
    DelimiterCollisionError,
    Exemplar,
    TemplateKind,
    TransferRequest,
    builtin_delimiters,
    delimiter_by_name,
    extract_completion,
    parse_style,
    render_cloze,
    render_prompt,
)

# A style is its label. parse_style is the one normalization every record
# and request applies: trimmed, with a leading "not " written in lower case.
positive = "positive"
negative = "negative"
print("--- style label")
print(repr(parse_style(" Not  negative ")))   # 'not negative'
print()
text = "I love The Sound of Music; it is the best movie ever!!"

# The four phrasings, over curly braces. Vanilla never mentions the source
# style; the negation variants describe one style as "not" the other.
for kind in TemplateKind:
    req = TransferRequest(input_text=text, source_style=positive,
                          target_style=negative, template=kind)
    print(f"--- {kind.value}")
    print(render_prompt(req))
    print()

# Ten delimiter pairs; quotes and dashes use the same marker on both sides.
print("--- delimiter pairs")
for pair in builtin_delimiters():
    print(f"  {pair.kind.value:17} open={pair.open!r:7} close={pair.close!r}")

# The prompt always ends with the opening marker, so the model continues
# inside the delimited slot; extraction cuts at the first closing marker.
curly = delimiter_by_name("curly")
raw_model_output = "I hate The Sound of Music; it is the worst movie ever!!} and then some"
completion = extract_completion(raw_model_output, curly)
print("\n--- extraction")
print("raw: ", raw_model_output)
print("text:", completion.text)
print("unterminated:", completion.unterminated)

# Few-shot: an exemplar is an (input, output) pair. Its block is rendered
# under the request's template and styles, its output closed.
exemplar = Exemplar(input="great food", output="awful food")
few_shot = TransferRequest(input_text="the staff was friendly",
                           source_style=positive, target_style=negative,
                           exemplars=(exemplar,))
print("\n--- one-shot prompt")
print(render_prompt(few_shot))

# The cloze statement used later for style-strength scoring.
print("\n--- cloze")
print(render_cloze("the staff was rude", "<mask>"))

# Inputs containing the closing marker are rejected loudly, never escaped.
try:
    render_prompt(TransferRequest(input_text="bad } text",
                                  source_style=positive,
                                  target_style=negative))
except DelimiterCollisionError as err:
    print("\ncollision rejected:", err)
